// Package span is the latency-provenance layer: every memory operation
// (read, write, zero, shred, re-encrypt, merkle flush, crash recovery)
// carries a deterministic span through the stack, and each layer it
// crosses credits its busy cycles to the span's per-layer segments.
// Where obs answers "what happened", span answers "where did the cycles
// of this operation go" — mmu, cache hierarchy, counter cache, AES pad,
// integrity engine, bank-queue wait, or the device itself.
//
// The recorder follows the obs.Bus discipline exactly: a nil *Recorder
// is a valid, permanently-disabled recorder whose every method is an
// allocation-free no-op (see TestDisabledSpanAllocs); an enabled
// recorder ring-buffers completed spans in a preallocated ring,
// dropping the oldest on overflow (Dropped counts them). A Recorder is
// single-goroutine like the machine it observes; under the parallel
// sweep engine each worker's machine gets its own Recorder and the
// per-run spans are merged in submission order, so exported artifacts
// are byte-identical for any -parallel value. All timestamps are
// logical cycles via SetNow, never wall-clock time.
//
// Segment semantics are BUSY cycles, not wall-clock slices: the
// simulated controller overlaps work (a read's latency is
// max(deviceLat, counterLat) + pad XOR + queue stall), so a span's
// segments may legitimately sum past its total Cycles. The remainder
// max(0, Cycles - sum(Seg)) — computed by the aggregator as "other" —
// is time the op spent in uninstrumented costs (kernel overheads, TLB
// shootdowns, fault handling).
package span

// Layer identifies one instrumented level of the memory stack.
type Layer uint8

// Layers, ordered top (closest to the core) to bottom (the device).
const (
	// LayerMMU: address translation — TLB walk, page-table walk, and
	// the page-fault path's kernel entry (not the fill itself).
	LayerMMU Layer = iota
	// LayerCache: the on-chip cache hierarchy (L1..LLC + coherence).
	LayerCache
	// LayerCtrCache: counter-cache lookups, evictions, and fills.
	LayerCtrCache
	// LayerPad: AES counter-mode pad work on the critical path (the
	// XOR after pad generation; pad generation itself overlaps the
	// device access).
	LayerPad
	// LayerIntegrity: Merkle tree verify/update hashing.
	LayerIntegrity
	// LayerBankWait: stall cycles waiting on a busy bank or a full
	// posted-write queue.
	LayerBankWait
	// LayerDevice: NVM array service time (read/write/DCW/FNW).
	LayerDevice

	LayerCount
)

var layerNames = [LayerCount]string{
	LayerMMU:       "mmu",
	LayerCache:     "cache",
	LayerCtrCache:  "ctrcache",
	LayerPad:       "pad",
	LayerIntegrity: "integrity",
	LayerBankWait:  "bank_wait",
	LayerDevice:    "device",
}

// String returns the layer's stable name (used in exported artifacts).
func (l Layer) String() string {
	if l < LayerCount {
		return layerNames[l]
	}
	return "layer?"
}

// Op classifies the operation a span covers.
type Op uint8

// Operation classes.
const (
	// OpRead / OpWrite: one application load / store (per block for
	// bulk transfers).
	OpRead Op = iota
	OpWrite
	// OpZero: a kernel page clear via data writes (temporal stores or
	// the controller's non-temporal zero path).
	OpZero
	// OpShred: a kernel page clear via the shred command (counter
	// bump only — the paper's zero-cost path).
	OpShred
	// OpReencrypt: a minor-counter wrap forced a whole-page
	// re-encryption.
	OpReencrypt
	// OpMerkleFlush: a persist barrier propagated deferred integrity
	// tree updates.
	OpMerkleFlush
	// OpRecover: post-crash image recovery.
	OpRecover

	OpCount
)

var opNames = [OpCount]string{
	OpRead:        "read",
	OpWrite:       "write",
	OpZero:        "zero",
	OpShred:       "shred",
	OpReencrypt:   "reencrypt",
	OpMerkleFlush: "merkle_flush",
	OpRecover:     "recover",
}

// String returns the op class's stable name (used in exported
// artifacts).
func (o Op) String() string {
	if o < OpCount {
		return opNames[o]
	}
	return "op?"
}

// Span is one completed operation with its per-layer cycle breakdown.
type Span struct {
	// Seq is the recorder-local completion sequence number (0-based);
	// it breaks timestamp ties deterministically.
	Seq uint64
	// Start is the issuing core's cycle count when the span began.
	Start uint64
	// Cycles is the operation's total latency as charged to the core.
	Cycles uint64
	// Addr is the operation's address operand (virtual for app ops,
	// physical page for kernel/controller ops).
	Addr uint64
	// Op classifies the operation.
	Op Op
	// Core is the core context the span began under (-1 outside any
	// core).
	Core int32
	// Tenant is the owning tenant/VM tag (the faulting process's PID;
	// -1 when no tenant context applies).
	Tenant int32
	// Seg holds busy cycles credited per layer (see package comment
	// for the overlap semantics).
	Seg [LayerCount]uint64
}

// MaxDepth bounds span nesting (a store that faults, clears a page,
// and re-encrypts it nests three deep; 8 leaves headroom). Deeper
// Begins are counted but not recorded.
const MaxDepth = 8

// DefaultRingCap is the completed-span capacity of a Recorder created
// with a zero Config. Spans are ~120 bytes, so this is ~30 MiB.
const DefaultRingCap = 1 << 18

// Config parameterizes a Recorder.
type Config struct {
	// RingCap is the completed-span capacity (DefaultRingCap if 0).
	RingCap int
}

// Recorder collects spans from one machine. A nil *Recorder is a
// valid, permanently-disabled recorder: all methods are allocation-free
// no-ops. A non-nil Recorder is not safe for concurrent use.
type Recorder struct {
	ring    []Span
	n       int // spans currently in ring
	start   int // index of oldest span (circular when dropping)
	seq     uint64
	dropped uint64

	now    uint64
	core   int32
	tenant int32

	// Active-span stack. accum[i] tracks all cycles Added while
	// stack[i] was innermost-or-outer — Mark/Attribute use the
	// innermost accumulator to compute residuals.
	depth int
	over  int // Begins refused because the stack was full
	stack [MaxDepth]Span
	accum [MaxDepth]uint64

	agg Agg
}

// NewRecorder creates an enabled recorder.
func NewRecorder(cfg Config) *Recorder {
	cap := cfg.RingCap
	if cap <= 0 {
		cap = DefaultRingCap
	}
	return &Recorder{ring: make([]Span, 0, cap), core: -1, tenant: -1}
}

// SetNow updates the recorder's notion of current time: the issuing
// core and its cycle count. No-op on a nil recorder.
func (r *Recorder) SetNow(core int, cycles uint64) {
	if r == nil {
		return
	}
	r.core = int32(core)
	r.now = cycles
}

// SetTenant tags subsequently begun spans with a tenant/VM identity
// (the owning process's PID; -1 clears it). No-op on a nil recorder.
func (r *Recorder) SetTenant(tenant int32) {
	if r == nil {
		return
	}
	r.tenant = tenant
}

// Begin opens a span for one operation. Every Begin must be paired
// with exactly one End on the same recorder (nil recorders pair
// no-ops). Begins past MaxDepth are counted and dropped; the matching
// End unwinds them without touching the stack.
func (r *Recorder) Begin(op Op, addr uint64) {
	if r == nil {
		return
	}
	if r.depth >= MaxDepth {
		r.over++
		return
	}
	r.stack[r.depth] = Span{
		Start:  r.now,
		Addr:   addr,
		Op:     op,
		Core:   r.core,
		Tenant: r.tenant,
	}
	r.accum[r.depth] = 0
	r.depth++
}

// Add credits busy cycles to the given layer of every active span, so
// a store's span absorbs the device work of the page clear it
// triggered. No-op when no span is active.
func (r *Recorder) Add(layer Layer, cycles uint64) {
	if r == nil || r.depth == 0 || cycles == 0 {
		return
	}
	for i := 0; i < r.depth; i++ {
		r.stack[i].Seg[layer] += cycles
		r.accum[i] += cycles
	}
}

// Mark returns a cursor over the innermost span's accumulated Add
// cycles, for use with Attribute. Returns 0 on a nil recorder or with
// no active span.
func (r *Recorder) Mark() uint64 {
	if r == nil || r.depth == 0 {
		return 0
	}
	return r.accum[r.depth-1]
}

// Attribute credits the RESIDUAL of a composite latency to a layer:
// total minus whatever deeper layers already Added since the mark,
// clamped at zero. Callers bracket a composite call (a counter-cache
// Get that may recurse into device reads and tree verifies, a
// hierarchy access that may miss to the controller) with
// mk := r.Mark() ... r.Attribute(layer, lat, mk) so each layer claims
// only its own share.
func (r *Recorder) Attribute(layer Layer, total uint64, mark uint64) {
	if r == nil || r.depth == 0 {
		return
	}
	inner := r.accum[r.depth-1] - mark
	if total > inner {
		r.Add(layer, total-inner)
	}
}

// End closes the innermost span with the operation's total latency,
// commits it to the ring, and folds it into the aggregate. No-op on a
// nil recorder.
func (r *Recorder) End(total uint64) {
	if r == nil {
		return
	}
	if r.over > 0 {
		r.over--
		return
	}
	if r.depth == 0 {
		return
	}
	r.depth--
	sp := r.stack[r.depth]
	sp.Cycles = total
	sp.Seq = r.seq
	r.seq++
	r.agg.observe(&sp)
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, sp)
		r.n = len(r.ring)
		return
	}
	r.ring[r.start] = sp
	r.start = (r.start + 1) % len(r.ring)
	r.dropped++
}

// Spans returns the buffered spans oldest-first. The slice is a copy
// and remains valid after further recording. Nil on a nil recorder.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, 0, r.n)
	out = append(out, r.ring[r.start:]...)
	out = append(out, r.ring[:r.start]...)
	return out
}

// Dropped returns how many completed spans were overwritten because
// the ring filled.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Aggregate returns the recorder's running per-op-class attribution
// aggregate. The aggregate covers EVERY completed span, including ones
// the ring has since dropped. Nil on a nil recorder.
func (r *Recorder) Aggregate() *Agg {
	if r == nil {
		return nil
	}
	return &r.agg
}
