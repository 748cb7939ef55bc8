// Package nvm models a non-volatile main memory device (e.g. Phase-Change
// Memory) at cache-block granularity.
//
// The model captures the NVM properties the paper's evaluation depends on:
//
//   - asymmetric, slow writes (Table 1: 75ns reads, 150ns writes),
//   - limited write endurance, tracked per block: which blocks of a page
//     were written, and exact counts once one of them is rewritten,
//   - cell-level write-reduction schemes — Data Comparison Write (DCW) and
//     Flip-N-Write (FNW) — which the paper's motivation (§1) shows are
//     defeated by encryption's diffusion; the device counts bit flips so
//     that effect is directly measurable (cmd/experiments ablation-dcw).
//
// Data storage is sparse (per-page, allocated on first write) and optional:
// timing-only runs disable it to keep memory-footprint sweeps cheap.
package nvm

import (
	"encoding/binary"
	"math"
	"math/bits"

	"silentshredder/internal/addr"
	"silentshredder/internal/clock"
	"silentshredder/internal/obs"
	"silentshredder/internal/span"
	"silentshredder/internal/stats"
)

// WriteMode selects the device's cell-write-reduction scheme.
type WriteMode int

const (
	// WriteAll writes every bit of every block (no reduction).
	WriteAll WriteMode = iota
	// DCW (Data Comparison Write) reads the old contents and only
	// programs cells whose value changed; a write identical to the old
	// contents is skipped entirely.
	DCW
	// FNW (Flip-N-Write) additionally stores each 64-bit word inverted
	// when that flips fewer cells, bounding flips to half the word.
	FNW
)

func (m WriteMode) String() string {
	switch m {
	case WriteAll:
		return "write-all"
	case DCW:
		return "dcw"
	case FNW:
		return "fnw"
	default:
		return "unknown"
	}
}

// Config holds device parameters.
type Config struct {
	ReadLatency  clock.Cycles // per-block read latency
	WriteLatency clock.Cycles // per-block write latency
	Channels     int          // memory channels (blocks interleave across them)
	StoreData    bool         // keep actual contents (required for DCW/FNW and functional checks)
	WriteMode    WriteMode

	// DisableWearTracking drops per-block wear tracking. Giant
	// timing-only sweeps (e.g. the 1GB memset experiment, which
	// rewrites every block and so would give every page counts) enable
	// this to bound host memory; endurance statistics then only report
	// the aggregate write count.
	DisableWearTracking bool

	// Banks per channel. Accesses hitting a recently used bank pay
	// BankPenalty extra cycles, modeling the row-cycle time a busy PCM
	// bank imposes on back-to-back requests. 0 disables the model.
	Banks       int
	BankPenalty clock.Cycles
	// BankWindow is how many subsequent accesses a bank stays busy for
	// (a logical-time stand-in for tRC at the modeled access rate).
	BankWindow uint64

	// BankQueueDepth > 0 replaces the passive penalty heuristic above
	// with the banked drain scheduler (bank.go): every bank gets its own
	// bounded posted-write queue of this depth, a busy-until timestamp,
	// write-drain batching, and read-around-write. Off (0) by default so
	// existing configurations keep byte-identical statistics.
	BankQueueDepth int
	// BankDrainBatch is how many queued writes a full bank drains
	// back-to-back before admitting the stalled producer
	// (0 = DefaultBankDrainBatch).
	BankDrainBatch int

	// Energy model (picojoules). PCM reads sense cells cheaply; writes
	// pay per programmed cell, which is what makes eliminated writes and
	// DCW-style flip reduction show up as energy savings.
	ReadEnergyPerBitPJ  float64
	WriteEnergyPerBitPJ float64
}

// DefaultConfig returns the paper's Table 1 main-memory configuration:
// 75ns reads, 150ns writes, 2 channels, with data storage enabled.
func DefaultConfig() Config {
	return Config{
		ReadLatency:  clock.FromNs(75),
		WriteLatency: clock.FromNs(150),
		Channels:     2,
		StoreData:    true,
		WriteMode:    WriteAll,
		Banks:        8,
		BankPenalty:  clock.FromNs(30),
		BankWindow:   4,
		// Representative PCM figures: ~2pJ/bit sensing, ~16pJ per
		// programmed cell (Lee et al. / Qureshi et al. ballpark).
		ReadEnergyPerBitPJ:  2,
		WriteEnergyPerBitPJ: 16,
	}
}

// ReadOutcome describes what fault injection did to one delivered read:
// how many of the delivered bits differ from the stored codeword, and
// whether the stored codeword itself is torn (data/ECC inconsistent from
// an incomplete write). The zero value means a clean read.
type ReadOutcome struct {
	BitErrors int
	Torn      bool
}

// Injector is the device-side fault-injection hook (implemented by
// internal/fault). FilterWrite is called before a data-storing write
// commits: old is the block's current stored contents, src a scratch
// copy of the bytes being written that the injector may mutate (torn
// writes); returning false drops the write entirely (the old contents
// remain). CorruptRead is called after a checked read delivered the
// stored codeword into dst; the injector overlays faults in place and
// reports the outcome.
type Injector interface {
	FilterWrite(a addr.Phys, wear uint64, old, src []byte) bool
	CorruptRead(a addr.Phys, dst []byte) ReadOutcome
}

// wearCounts holds the per-block wear counts of one page. A count
// saturates at math.MaxUint32, far beyond the 10^8-10^9 writes a PCM
// cell endures; 32-bit counts make a page exactly the 256-byte size
// class.
type wearCounts [addr.BlocksPerPage]uint32

// flipPage holds the FNW flip-bit bytes of one page's blocks.
type flipPage struct {
	present uint64
	f       [addr.BlocksPerPage]uint8
}

// Device is a simulated NVM DIMM population. Cell contents, wear and
// Flip-N-Write flip bits are kept per page in page tables, each page's
// chunk allocated on its first write.
//
// Wear is a mask per page until a block is rewritten: bit i of written
// marks block i as written at least once, the distinction State's flat
// per-block map exports, and a page without counts has wear 1 on each
// marked block and 0 elsewhere. The first write of a block already
// marked gives its page counts, seeded from the mask, and from then on
// a write to that page touches only its counts, so a block a count
// makes non-zero may lack its mask bit. A page has counts only if its
// mask is non-zero. Most pages are never rewritten (Silent Shredder
// writes no zeros), so most cost 8 bytes instead of a 256-byte count
// array.
type Device struct {
	cfg     Config
	pages   addr.PageTable[*[addr.PageSize]byte]
	flip    addr.PageTable[*flipPage] // FNW flip bit per 8-byte word, bit i = word i of block
	written addr.PageTable[uint64]
	counts  addr.PageTable[*wearCounts]

	inj       Injector          // nil = perfect device
	writeHook func(a addr.Phys) // crash scheduler; runs before any commit
	scratch   [addr.BlockSize]byte

	reads, writes, skippedWrites stats.Counter
	bitsFlipped, bitsWritten     stats.Counter
	bankConflicts                stats.Counter
	perChannel                   []stats.Counter
	maxWear                      uint64

	tick     uint64
	bankLast []uint64 // logical tick of each bank's last access

	// Banked drain-scheduler model (bank.go); nil = legacy heuristic.
	sched   *bankSched
	now     uint64 // device arrival clock, advanced arrival per access
	arrival uint64 // DefaultBankArrival; tests may set another interval

	wqEnqueued, wqDrained      stats.Counter
	wqDrainStalls, readArounds stats.Counter
	wqOccupancy                stats.Histogram
	bus                        *obs.Bus
	spans                      *span.Recorder
}

// New creates a device. Channels must be at least 1.
func New(cfg Config) *Device {
	if cfg.Channels < 1 {
		cfg.Channels = 1
	}
	if cfg.BankQueueDepth > 0 && cfg.Banks < 1 {
		cfg.Banks = 1 // the banked scheduler needs at least one bank
	}
	d := &Device{
		cfg:        cfg,
		perChannel: make([]stats.Counter, cfg.Channels),
	}
	if cfg.Banks > 0 {
		d.bankLast = make([]uint64, cfg.Channels*cfg.Banks)
	}
	if cfg.BankQueueDepth > 0 {
		d.sched = newBankSched(cfg.Channels*cfg.Banks, cfg)
		d.arrival = uint64(DefaultBankArrival)
	}
	return d
}

// SetBus attaches the observability event bus (nil disables). The device
// emits bank-conflict and drain-stall events under the banked model.
func (d *Device) SetBus(b *obs.Bus) { d.bus = b }

// SetSpans attaches the latency-provenance recorder (nil disables). The
// device credits array service time to LayerDevice and bank/queue stalls
// to LayerBankWait on whatever span is active when an access arrives.
func (d *Device) SetSpans(r *span.Recorder) { d.spans = r }

// countsOf returns page p's wear counts, creating them if needed with
// a count of 1 for each block its mask marks.
func (d *Device) countsOf(p addr.PageNum) *wearCounts {
	c := d.counts.Get(p)
	if c == nil {
		c = new(wearCounts)
		for rem := d.written.Get(p); rem != 0; rem &= rem - 1 {
			c[bits.TrailingZeros64(rem)] = 1
		}
		d.counts.Set(p, c)
	}
	return c
}

// flipPageOf returns page p's flip chunk, creating it if needed.
func (d *Device) flipPageOf(p addr.PageNum) *flipPage {
	fp := d.flip.Get(p)
	if fp == nil {
		fp = &flipPage{}
		d.flip.Set(p, fp)
	}
	return fp
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// SetInjector attaches (or, with nil, detaches) a fault injector. With no
// injector the device is exactly the perfect device it always was.
func (d *Device) SetInjector(inj Injector) { d.inj = inj }

// SetWriteHook installs a function called at the top of every WriteBlock,
// before any state is committed. The crash-anywhere harness uses it to
// kill the machine at an exact persistent-write boundary: a hook that
// panics guarantees the in-flight write never reached the device.
func (d *Device) SetWriteHook(fn func(a addr.Phys)) { d.writeHook = fn }

// Channel returns the channel servicing block address a (block-interleaved).
func (d *Device) Channel(a addr.Phys) int {
	return int(a>>addr.BlockShift) % d.cfg.Channels
}

// Bank returns the global bank index servicing block address a (blocks
// interleave across channels first, then across the channel's banks), or
// -1 when bank modeling is disabled.
func (d *Device) Bank(a addr.Phys) int {
	if d.cfg.Banks <= 0 {
		return -1
	}
	blk := uint64(a) >> addr.BlockShift
	ch := int(blk) % d.cfg.Channels
	return ch*d.cfg.Banks + int(blk/uint64(d.cfg.Channels))%d.cfg.Banks
}

// accessDelay schedules one access on the active bank model and returns
// the extra latency it experienced beyond the raw cell access. It is a
// thin inlinable dispatcher so the legacy path stays a single direct
// call from the block I/O hot loop.
func (d *Device) accessDelay(a addr.Phys, isWrite bool) clock.Cycles {
	var extra clock.Cycles
	if d.sched == nil {
		extra = d.bankDelay(a)
	} else {
		extra = d.bankedDelay(a, isWrite)
	}
	d.spans.Add(span.LayerBankWait, uint64(extra))
	return extra
}

// serviceLat credits the active span's device segment with the array
// service time and returns the total access latency including the bank
// stall (already credited to LayerBankWait by accessDelay).
func (d *Device) serviceLat(service, bankExtra clock.Cycles) clock.Cycles {
	d.spans.Add(span.LayerDevice, uint64(service))
	return service + bankExtra
}

// bankedDelay runs one access through the banked drain scheduler and
// folds the outcome into the device statistics.
func (d *Device) bankedDelay(a addr.Phys, isWrite bool) clock.Cycles {
	b := d.Bank(a)
	t := d.now
	d.now += d.arrival
	var oc bankOutcome
	if isWrite {
		oc = d.sched.write(b, t)
		d.wqEnqueued.Inc()
	} else {
		oc = d.sched.read(b, t)
	}
	if oc.Conflict {
		d.bankConflicts.Inc()
		d.bus.Emit(obs.EvBankConflict, uint64(a), uint64(oc.Extra))
	}
	if oc.ReadAround {
		d.readArounds.Inc()
	}
	if oc.DrainStall {
		d.wqDrainStalls.Inc()
		d.bus.Emit(obs.EvWQDrainStall, uint64(a), uint64(oc.Extra))
	}
	if oc.Drained > 0 {
		d.wqDrained.Add(uint64(oc.Drained))
	}
	d.wqOccupancy.Observe(float64(oc.Occupancy))
	return oc.Extra
}

// bankDelay advances logical time and returns the extra latency if the
// accessed bank is still busy from a recent request.
func (d *Device) bankDelay(a addr.Phys) clock.Cycles {
	b := d.Bank(a)
	if b < 0 {
		return 0
	}
	d.tick++
	var extra clock.Cycles
	if last := d.bankLast[b]; last != 0 && d.tick <= last+d.cfg.BankWindow {
		d.bankConflicts.Inc()
		extra = d.cfg.BankPenalty
	}
	d.bankLast[b] = d.tick
	return extra
}

// ReadBlock reads the 64B block at block-aligned address a into dst and
// returns the access latency. Reading never-written cells yields zeros.
func (d *Device) ReadBlock(a addr.Phys, dst []byte) clock.Cycles {
	a = a.Block()
	d.reads.Inc()
	d.perChannel[d.Channel(a)].Inc()
	bankExtra := d.accessDelay(a, false)
	if d.cfg.StoreData && dst != nil {
		if pg := d.pages.Get(a.Page()); pg != nil {
			off := a.PageOffset()
			copy(dst[:addr.BlockSize], pg[off:off+addr.BlockSize])
		} else {
			for i := 0; i < addr.BlockSize && i < len(dst); i++ {
				dst[i] = 0
			}
		}
	}
	return d.serviceLat(d.cfg.ReadLatency, bankExtra)
}

// ReadBlockChecked is ReadBlock plus fault delivery: after the stored
// codeword is copied into dst, the attached injector (if any) overlays
// stuck cells and transient flips, and the outcome reports the resulting
// bit-error syndrome for the ECC layer. With no injector it is exactly
// ReadBlock with a clean outcome.
func (d *Device) ReadBlockChecked(a addr.Phys, dst []byte) (clock.Cycles, ReadOutcome) {
	lat := d.ReadBlock(a, dst)
	var oc ReadOutcome
	if d.inj != nil && d.cfg.StoreData && dst != nil {
		oc = d.inj.CorruptRead(a.Block(), dst)
	}
	return lat, oc
}

// Peek copies the current raw contents of the block at a into dst without
// modeling an access (no latency, no statistics). It is how tests and the
// attack-model harness inspect what an adversary scanning the DIMM would
// see. It returns false if data storage is disabled.
func (d *Device) Peek(a addr.Phys, dst []byte) bool {
	if !d.cfg.StoreData {
		return false
	}
	a = a.Block()
	if pg := d.pages.Get(a.Page()); pg != nil {
		off := a.PageOffset()
		copy(dst[:addr.BlockSize], pg[off:off+addr.BlockSize])
	} else {
		for i := range dst[:addr.BlockSize] {
			dst[i] = 0
		}
	}
	return true
}

// WriteBlock writes the 64B block at block-aligned address a and returns
// the access latency. Depending on the write mode, some or all of the
// write may be elided; wear and bit-flip statistics are updated to match.
func (d *Device) WriteBlock(a addr.Phys, src []byte) clock.Cycles {
	a = a.Block()
	if d.writeHook != nil {
		// The crash scheduler runs before any commit: if it panics, this
		// write never reached the cells.
		d.writeHook(a)
	}
	bankExtra := d.accessDelay(a, true)
	if !d.cfg.StoreData || src == nil {
		// Timing-only mode: every write programs the full block.
		d.accountWrite(a, addr.BlockSize*8, addr.BlockSize*8)
		return d.serviceLat(d.cfg.WriteLatency, bankExtra)
	}

	pg := d.pages.Get(a.Page())
	if pg == nil {
		pg = new([addr.PageSize]byte)
		d.pages.Set(a.Page(), pg)
	}
	off := a.PageOffset()
	old := pg[off : off+addr.BlockSize]

	if d.inj != nil {
		// Fault filtering: the injector may drop the write (stale
		// contents remain) or tear it (src mutated to a mix of old and
		// new). The cells are pulsed either way — latency and wear are
		// charged as for a full write.
		copy(d.scratch[:], src[:addr.BlockSize])
		if !d.inj.FilterWrite(a, d.wearOf(a), old, d.scratch[:]) {
			d.accountWrite(a, 0, addr.BlockSize*8)
			return d.serviceLat(d.cfg.WriteLatency, bankExtra)
		}
		src = d.scratch[:]
	}

	switch d.cfg.WriteMode {
	case DCW:
		changed := diffBits(old, src)
		if changed == 0 {
			d.skippedWrites.Inc()
			return d.serviceLat(d.cfg.ReadLatency, bankExtra) // DCW still reads to compare
		}
		d.accountWrite(a, changed, addr.BlockSize*8)
	case FNW:
		changed := d.fnwFlips(a, old, src)
		if changed == 0 {
			d.skippedWrites.Inc()
			return d.serviceLat(d.cfg.ReadLatency, bankExtra)
		}
		d.accountWrite(a, changed, addr.BlockSize*8)
	default:
		d.accountWrite(a, diffBits(old, src), addr.BlockSize*8)
	}
	copy(old, src[:addr.BlockSize])
	return d.serviceLat(d.cfg.WriteLatency, bankExtra)
}

func (d *Device) accountWrite(a addr.Phys, flipped, written uint64) {
	d.writes.Inc()
	d.perChannel[d.Channel(a)].Inc()
	d.bitsFlipped.Add(flipped)
	d.bitsWritten.Add(written)
	if d.cfg.DisableWearTracking {
		return
	}
	p, bi := a.Page(), a.BlockIndex()
	if c := d.counts.Get(p); c != nil {
		if c[bi] < math.MaxUint32 {
			c[bi]++
		}
		d.maxWear = max(d.maxWear, uint64(c[bi]))
		return
	}
	d.markWritten(p, bi)
}

// markWritten accounts a write of block bi of page p, which has no
// counts: a first write sets the block's mask bit, and a rewrite gives
// the page counts.
func (d *Device) markWritten(p addr.PageNum, bi int) {
	m := d.written.Ptr(p)
	switch {
	case m == nil:
		d.written.Set(p, 1<<bi)
	case *m&(1<<bi) == 0:
		*m |= 1 << bi
	default:
		d.countsOf(p)[bi] = 2
		d.maxWear = max(d.maxWear, 2)
		return
	}
	d.maxWear = max(d.maxWear, 1)
}

// wearOf returns the wear count of block a (0 when never written).
func (d *Device) wearOf(a addr.Phys) uint64 {
	p, bi := a.Page(), a.BlockIndex()
	if c := d.counts.Get(p); c != nil {
		return uint64(c[bi])
	}
	return d.written.Get(p) >> bi & 1
}

// diffBits counts differing bits between two 64-byte blocks.
func diffBits(old, new []byte) uint64 {
	var n uint64
	for i := 0; i < addr.BlockSize; i += 8 {
		o := binary.LittleEndian.Uint64(old[i:])
		w := binary.LittleEndian.Uint64(new[i:])
		n += uint64(bits.OnesCount64(o ^ w))
	}
	return n
}

// fnwFlips computes the cells Flip-N-Write programs: per 64-bit word, the
// stored image may be inverted (tracked by a flip bit) so at most 32 cells
// plus the flip bit change per word.
func (d *Device) fnwFlips(a addr.Phys, old, new []byte) uint64 {
	fp := d.flipPageOf(a.Page())
	bi := a.BlockIndex()
	flips := fp.f[bi]
	var total uint64
	for w := 0; w < addr.BlockSize/8; w++ {
		o := binary.LittleEndian.Uint64(old[w*8:])
		n := binary.LittleEndian.Uint64(new[w*8:])
		cells := o // physical cell image of the word
		wasFlipped := flips&(1<<w) != 0
		if wasFlipped {
			cells = ^o
		}
		// Cost of each choice includes changing the flip bit if needed.
		direct := uint64(bits.OnesCount64(cells ^ n))
		if wasFlipped {
			direct++ // must clear the flip bit
		}
		inverted := uint64(bits.OnesCount64(cells ^ ^n))
		if !wasFlipped {
			inverted++ // must set the flip bit
		}
		if inverted < direct {
			total += inverted
			flips |= 1 << w
		} else {
			total += direct
			if wasFlipped {
				flips &^= 1 << w
			}
		}
	}
	fp.present |= 1 << bi
	fp.f[bi] = flips
	return total
}

// State is the device's serializable persistent state (cell contents,
// wear, Flip-N-Write metadata). Used by checkpointing and DIMM dumps.
type State struct {
	Pages map[addr.PageNum][]byte
	Wear  map[addr.Phys]uint64
	Flip  map[addr.Phys]uint8
}

// Snapshot exports the device's persistent state. The returned state
// shares no memory with the device; wear and flip export in the flat
// per-block form State has always used.
func (d *Device) Snapshot() *State {
	st := &State{
		Pages: make(map[addr.PageNum][]byte),
		Wear:  make(map[addr.Phys]uint64),
		Flip:  make(map[addr.Phys]uint8),
	}
	d.pages.ForEach(func(p addr.PageNum, data *[addr.PageSize]byte) {
		st.Pages[p] = append([]byte(nil), data[:]...)
	})
	d.written.ForEach(func(p addr.PageNum, m uint64) {
		c := d.counts.Get(p)
		if c == nil {
			for rem := m; rem != 0; rem &= rem - 1 {
				st.Wear[p.BlockAddr(bits.TrailingZeros64(rem))] = 1
			}
			return
		}
		for bi, w := range c {
			if w != 0 || m&(1<<bi) != 0 {
				st.Wear[p.BlockAddr(bi)] = uint64(w)
			}
		}
	})
	d.flip.ForEach(func(p addr.PageNum, fp *flipPage) {
		for rem := fp.present; rem != 0; rem &= rem - 1 {
			bi := bits.TrailingZeros64(rem)
			st.Flip[p.BlockAddr(bi)] = fp.f[bi]
		}
	})
	return st
}

// Restore replaces the device's persistent state with st. A wear count
// above math.MaxUint32 is restored as that cap.
func (d *Device) Restore(st *State) {
	d.pages.Reset()
	for p, data := range st.Pages {
		pg := new([addr.PageSize]byte)
		copy(pg[:], data)
		d.pages.Set(p, pg)
	}
	d.written.Reset()
	d.counts.Reset()
	d.maxWear = 0
	for a, w := range st.Wear {
		a = a.Block()
		d.written.Set(a.Page(), d.written.Get(a.Page())|1<<a.BlockIndex())
		d.maxWear = max(d.maxWear, min(w, math.MaxUint32))
	}
	for a, w := range st.Wear {
		if w != 1 {
			a = a.Block()
			d.countsOf(a.Page())[a.BlockIndex()] = uint32(min(w, math.MaxUint32))
		}
	}
	d.flip.Reset()
	for a, f := range st.Flip {
		a = a.Block()
		fp := d.flipPageOf(a.Page())
		bi := a.BlockIndex()
		fp.present |= 1 << bi
		fp.f[bi] = f
	}
}

// ForEachPage calls fn for every materialized data page (requires
// StoreData) in ascending page order. Crash recovery uses it to rebuild
// the architectural image from the persistent ciphertext, and the leak
// scan to report leaking pages in a stable order.
func (d *Device) ForEachPage(fn func(p addr.PageNum, data *[addr.PageSize]byte)) {
	d.pages.ForEach(fn)
}

// MaxWear returns the highest per-block write count seen so far.
func (d *Device) MaxWear() uint64 { return d.maxWear }

// EnergyPJ returns the modeled energy spent on the device so far, in
// picojoules: sensing energy for every block read plus programming
// energy for every cell actually flipped (so DCW/FNW/DEUCE savings and
// Silent Shredder's eliminated writes all show up directly).
func (d *Device) EnergyPJ() float64 {
	readBits := float64(d.reads.Value()) * addr.BlockSize * 8
	return readBits*d.cfg.ReadEnergyPerBitPJ +
		float64(d.bitsFlipped.Value())*d.cfg.WriteEnergyPerBitPJ
}

// BankConflicts returns accesses delayed by a busy bank.
func (d *Device) BankConflicts() uint64 { return d.bankConflicts.Value() }

// Writes returns the total block writes performed (excluding skipped).
func (d *Device) Writes() uint64 { return d.writes.Value() }

// SkippedWrites returns writes elided by DCW/FNW comparison.
func (d *Device) SkippedWrites() uint64 { return d.skippedWrites.Value() }

// BitsFlipped returns the total cells actually programmed.
func (d *Device) BitsFlipped() uint64 { return d.bitsFlipped.Value() }

// ResetStats clears access statistics (wear state is preserved, since it
// models physical cell degradation).
func (d *Device) ResetStats() {
	d.reads.Reset()
	d.writes.Reset()
	d.skippedWrites.Reset()
	d.bitsFlipped.Reset()
	d.bitsWritten.Reset()
	d.bankConflicts.Reset()
	for i := range d.perChannel {
		d.perChannel[i].Reset()
	}
	d.wqEnqueued.Reset()
	d.wqDrained.Reset()
	d.wqDrainStalls.Reset()
	d.readArounds.Reset()
	d.wqOccupancy.Reset()
	if d.sched != nil {
		d.sched.reset()
		d.now = 0
	}
}

// StatsSet exposes the device statistics under the given component name.
func (d *Device) StatsSet(name string) *stats.Set {
	s := stats.NewSet(name)
	s.RegisterCounter("reads", &d.reads)
	s.RegisterCounter("writes", &d.writes)
	s.RegisterCounter("skipped_writes", &d.skippedWrites)
	s.RegisterCounter("bits_flipped", &d.bitsFlipped)
	s.RegisterCounter("bits_written", &d.bitsWritten)
	s.RegisterCounter("bank_conflicts", &d.bankConflicts)
	s.RegisterFunc("energy_pj", d.EnergyPJ)
	s.RegisterFunc("max_wear", func() float64 { return float64(d.maxWear) })
	if d.sched != nil {
		// Banked-model stats are registered only when the scheduler is
		// active so legacy configurations keep byte-identical dumps.
		s.RegisterCounter("wq_enqueued", &d.wqEnqueued)
		s.RegisterCounter("wq_drained", &d.wqDrained)
		s.RegisterCounter("wq_drain_stalls", &d.wqDrainStalls)
		s.RegisterCounter("read_around_writes", &d.readArounds)
		s.RegisterFunc("wq_occupancy_mean", d.wqOccupancy.Mean)
		s.RegisterFunc("wq_occupancy_max", d.wqOccupancy.Max)
		s.RegisterFunc("wq_occupancy_p99", func() float64 { return d.wqOccupancy.Quantile(0.99) })
	}
	return s
}
