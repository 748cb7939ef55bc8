// Package obs is the machine's observability layer: a typed,
// ring-buffered event bus that components emit into, with exporters to
// the Chrome trace_event JSON format (chrome://tracing / Perfetto) and
// a compact binary format, the one a non-.json -obs-trace file gets.
//
// The bus is designed to cost nothing when disabled: every component
// holds a possibly-nil *Bus and calls Emit unconditionally; a nil
// receiver returns immediately and the call is allocation-free (see
// TestDisabledEmitAllocs). When enabled, events land in a preallocated
// ring that drops its oldest event when full, so the steady-state
// enabled path is allocation-free too.
//
// Determinism contract: a Bus is single-goroutine, like the machine it
// observes. Under the parallel sweep engine each worker's machine gets
// its own Bus; the per-run event slices are plain values that cross the
// channel and are merged in submission (index) order, so exported
// traces are byte-identical for any -parallel value. Event timestamps
// come from the issuing core's cycle counter via SetNow, never from
// wall-clock time.
package obs

import "fmt"

// Kind identifies an event type.
type Kind uint8

// Event kinds. The numbering is part of the binary spill format; append
// only. No component emits EvCtrPrefetch or EvHugeFault any more; they
// keep their numbers so that older spill files decode unchanged.
const (
	// EvShred: the controller executed a shred command for a page.
	// Addr = physical page base.
	EvShred Kind = iota + 1
	// EvZeroFill: a read was short-circuited to zeroes because the
	// block's counters were all-shredded (the paper's avoided read).
	// Addr = physical block address.
	EvZeroFill
	// EvCtrHit / EvCtrMiss: counter-cache lookup outcome. Addr =
	// physical page base.
	EvCtrHit
	EvCtrMiss
	// EvCtrEvict: a dirty counter block was written back on eviction.
	// Addr = physical page base of the victim.
	EvCtrEvict
	// EvCtrPrefetch: a neighboring counter block was prefetched (no
	// longer emitted). Addr = physical page base prefetched.
	EvCtrPrefetch
	// EvReencrypt: a minor-counter wrap forced a page re-encryption.
	// Addr = physical page base, Arg = blocks rewritten.
	EvReencrypt
	// EvECCCorrect: SECDED corrected a single-bit error. Addr =
	// physical block address.
	EvECCCorrect
	// EvECCUncorrectable: a double-bit (uncorrectable) error was
	// detected. Addr = physical block address.
	EvECCUncorrectable
	// EvLineRetire: a line exceeded its correction budget and was
	// remapped to a spare. Addr = physical block address.
	EvLineRetire
	// EvMerkleVerify / EvMerkleUpdate: Bonsai Merkle tree traversal.
	// Addr = physical page base, Arg = tree levels hashed.
	EvMerkleVerify
	EvMerkleUpdate
	// EvCrash / EvRecover: whole-machine power loss and the subsequent
	// recovery pass. Arg on EvRecover = blocks recovered.
	EvCrash
	EvRecover
	// EvPageFault / EvCoWFault / EvHugeFault: kernel demand-fill,
	// copy-on-write, and (no longer emitted) huge-page faults. Addr =
	// faulting virtual address.
	EvPageFault
	EvCoWFault
	EvHugeFault
	// EvFaultStuck / EvFaultFlip / EvFaultDrop / EvFaultTorn: NVM
	// fault-injector activations (stuck-at cell, transient read flip,
	// dropped write, torn write). Addr = physical block address.
	EvFaultStuck
	EvFaultFlip
	EvFaultDrop
	EvFaultTorn
	// EvPageInval: the coherence fabric invalidated a whole page ahead
	// of a shred command (Figure 6, step 2). Addr = physical page base,
	// Arg = blocks found resident.
	EvPageInval
	// EvBankConflict: a device access arrived at a busy bank under the
	// banked write-queue model. Addr = physical block address, Arg =
	// extra stall cycles charged.
	EvBankConflict
	// EvWQDrainStall: a posted write found its bank's bounded queue full
	// and waited for a drain batch. Addr = physical block address, Arg =
	// stall cycles until the batch retired.
	EvWQDrainStall
	// EvAttackAttempt: the adversary engine launched one attack attempt
	// (a power-off cut, a crash-window cut, or a counter replay).
	// Addr = the attempt's cut index or victim page, Arg = the attacker
	// kind (adversary.Attacker).
	EvAttackAttempt
	// EvAttackDetected: the integrity layer detected the attack (typed
	// integrity.ReplayError). Addr = the offending page's address,
	// Arg = the attacker kind.
	EvAttackDetected
	// EvAttackLeak: an attack recovered forbidden (pre-shred) bytes.
	// Addr = the attacker kind, Arg = total bytes leaked by the attempt.
	EvAttackLeak
	// EvMerkleFlush: the cached integrity engine propagated coalesced
	// dirty subtrees at a persist barrier. One event per tree level
	// rehashed: Addr = the level (1 = just above the leaves), Arg =
	// distinct nodes rehashed at that level.
	EvMerkleFlush

	kindMax
)

var kindNames = [kindMax]string{
	EvShred:            "shred",
	EvZeroFill:         "zero_fill",
	EvCtrHit:           "ctr_hit",
	EvCtrMiss:          "ctr_miss",
	EvCtrEvict:         "ctr_evict",
	EvCtrPrefetch:      "ctr_prefetch",
	EvReencrypt:        "reencrypt",
	EvECCCorrect:       "ecc_correct",
	EvECCUncorrectable: "ecc_uncorrectable",
	EvLineRetire:       "line_retire",
	EvMerkleVerify:     "merkle_verify",
	EvMerkleUpdate:     "merkle_update",
	EvCrash:            "crash",
	EvRecover:          "recover",
	EvPageFault:        "page_fault",
	EvCoWFault:         "cow_fault",
	EvHugeFault:        "huge_fault",
	EvFaultStuck:       "fault_stuck",
	EvFaultFlip:        "fault_flip",
	EvFaultDrop:        "fault_drop",
	EvFaultTorn:        "fault_torn",
	EvPageInval:        "page_inval",
	EvBankConflict:     "bank_conflict",
	EvWQDrainStall:     "wq_drain_stall",
	EvAttackAttempt:    "attack_attempt",
	EvAttackDetected:   "attack_detected",
	EvAttackLeak:       "attack_leak",
	EvMerkleFlush:      "merkle_flush",
}

// String returns the event kind's stable name (used in exported
// traces).
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one observed machine event.
type Event struct {
	// Seq is the bus-local emission sequence number (0-based). It
	// breaks timestamp ties deterministically.
	Seq uint64
	// TS is the emitting core's cycle count at emission time.
	TS uint64
	// Kind identifies the event.
	Kind Kind
	// Core is the core context the event was emitted under (-1 when
	// outside any core, e.g. machine-level crash/recovery).
	Core int32
	// Addr is the event's address operand (physical or virtual per
	// Kind; 0 if unused).
	Addr uint64
	// Arg is the event's scalar operand (0 if unused).
	Arg uint64
}

// DefaultRingCap is the event capacity of a Bus created with a zero
// Config. At 40 bytes/event this is ~40 MiB — large enough that quick
// runs never wrap, small enough to stay bounded.
const DefaultRingCap = 1 << 20

// Config parameterizes a Bus.
type Config struct {
	// RingCap is the in-memory event capacity (DefaultRingCap if 0).
	RingCap int
}

// Bus collects events from one machine in a ring that, once full,
// overwrites its oldest event (Dropped counts them). A nil *Bus is a
// valid, permanently-disabled bus: all methods are no-ops. A non-nil Bus
// is not safe for concurrent use; under the parallel sweep engine each
// worker machine owns its own Bus.
type Bus struct {
	ring    []Event
	start   int // index of the oldest event once the ring has wrapped
	seq     uint64
	dropped uint64 // events overwritten by a full ring

	now  uint64
	core int32
}

// NewBus creates an enabled bus.
func NewBus(cfg Config) *Bus {
	cap := cfg.RingCap
	if cap <= 0 {
		cap = DefaultRingCap
	}
	return &Bus{ring: make([]Event, 0, cap), core: -1}
}

// SetNow updates the bus's notion of current time: the issuing core and
// its cycle count. Components emit relative to the most recent SetNow.
// No-op on a nil bus.
func (b *Bus) SetNow(core int, cycles uint64) {
	if b == nil {
		return
	}
	b.core = int32(core)
	b.now = cycles
}

// Emit records one event at the current time. No-op (and
// allocation-free) on a nil bus.
func (b *Bus) Emit(kind Kind, addrOp, arg uint64) {
	if b == nil {
		return
	}
	ev := Event{Seq: b.seq, TS: b.now, Kind: kind, Core: b.core, Addr: addrOp, Arg: arg}
	b.seq++
	if len(b.ring) < cap(b.ring) {
		b.ring = append(b.ring, ev)
		return
	}
	// The ring is full: overwrite the oldest event.
	b.ring[b.start] = ev
	b.start = (b.start + 1) % len(b.ring)
	b.dropped++
}

// Events returns the buffered events in emission order. The slice is a
// copy and remains valid after further emits.
func (b *Bus) Events() []Event {
	if b == nil {
		return nil
	}
	out := make([]Event, 0, len(b.ring))
	out = append(out, b.ring[b.start:]...)
	return append(out, b.ring[:b.start]...)
}

// Len returns the number of buffered events.
func (b *Bus) Len() int {
	if b == nil {
		return 0
	}
	return len(b.ring)
}

// Dropped returns how many events were overwritten because the ring
// filled.
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped
}
