// Package hier models the processor's cache hierarchy: per-core private
// L1/L2 caches, shared L3/L4 caches (Table 1: 64KB/512KB/8MB/64MB, all
// 8-way with 64B blocks), a directory-based MESI coherence protocol over
// the private caches, and the paths that bulk zeroing needs — non-temporal
// stores that bypass the hierarchy, and whole-page invalidation for shred
// commands (Figure 6, step 2).
//
// The hierarchy is inclusive: every block in a private cache is also in
// L3, and every block in L3 is also in L4. Timing is additive lookup
// latency down the hierarchy; an LLC (L4) miss is serviced by the secure
// memory controller.
package hier

import (
	"fmt"
	"math/bits"

	"silentshredder/internal/addr"
	"silentshredder/internal/cache"
	"silentshredder/internal/clock"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/obs"
	"silentshredder/internal/stats"
)

// Config describes the hierarchy.
type Config struct {
	Cores int
	L1    cache.Config // per core
	L2    cache.Config // per core
	L3    cache.Config // shared
	L4    cache.Config // shared
}

// Coherence and non-temporal store costs, in core cycles.
const (
	// CoherencePenalty is charged for each invalidation or intervention
	// round trip between private caches (through the shared level).
	CoherencePenalty clock.Cycles = 25

	// NTStoreCycles is the per-block core occupancy of a non-temporal
	// store: the store retires once the block is handed to the write
	// queue, so the core sees bus-bandwidth occupancy, not NVM write
	// latency. Table 1's 12.8GB/s × 2 channels gives ~5 cycles per 64B.
	NTStoreCycles clock.Cycles = 5
)

// MaxCores is the most cores a hierarchy has: the paper's machine has 8,
// and a directory sharer mask is one byte.
const MaxCores = 8

// Validate reports whether cfg has a core count New accepts: 1 to
// MaxCores.
func (cfg Config) Validate() error {
	if cfg.Cores < 1 || cfg.Cores > MaxCores {
		return fmt.Errorf("hier: %d cores, want 1 to %d", cfg.Cores, MaxCores)
	}
	return nil
}

// Table1Config returns the paper's Table 1 hierarchy for n cores.
func Table1Config(n int) Config {
	return Config{
		Cores: n,
		L1:    cache.Config{Name: "l1", Size: 64 << 10, Assoc: 8, HitLatency: 2},
		L2:    cache.Config{Name: "l2", Size: 512 << 10, Assoc: 8, HitLatency: 8},
		L3:    cache.Config{Name: "l3", Size: 8 << 20, Assoc: 8, HitLatency: 25},
		L4:    cache.Config{Name: "l4", Size: 64 << 20, Assoc: 8, HitLatency: 35},
	}
}

// dirPage holds the directory state of one page's 64 blocks, and is the
// hierarchy's only record of which of them are cached. Bit i of held
// marks block i as held in L4, so by inclusion it covers every level.
// sharers[i] is block i's sharer mask, one bit per core whose private
// caches hold the block, and block i has an entry exactly when that
// mask is non-zero. Bit i of modified marks block i Modified; a Modified
// block's owner is its only sharer, so the mask names the owner.
// ways[i] places a held block i in the shared levels: bits 0-2 are its
// L4 way, bits 3-5 its L3 way, and bit 6 (inL3) is set exactly when L3
// holds it. A page is 144 bytes, exactly its allocation size class.
type dirPage struct {
	modified, held uint64
	sharers        [addr.BlocksPerPage]uint8
	ways           [addr.BlocksPerPage]uint8
}

// The fields of a dirPage ways byte.
const (
	l4WayMask  = 7      // bits 0-2: the block's L4 way
	l3WayShift = 3      // bits 3-5: its L3 way
	inL3       = 1 << 6 // bit 6: L3 holds the block
)

func l4Way(w uint8) int { return int(w & l4WayMask) }

func l3Way(w uint8) int { return int(w >> l3WayShift & 7) }

// own records that core holds block bi Modified, as its only sharer.
func (dp *dirPage) own(bi, core int) {
	dp.sharers[bi] = 1 << core
	dp.modified |= 1 << bi
}

// directory is the two-level MESI directory: a page table of per-page
// chunks. A chunk, once allocated, stays for reuse.
type directory struct {
	pages addr.PageTable[*dirPage]
}

// page returns page p's chunk, allocating it on first use.
func (d *directory) page(p addr.PageNum) *dirPage {
	if dp := d.pages.Get(p); dp != nil {
		return dp
	}
	dp := new(dirPage)
	d.pages.Set(p, dp)
	return dp
}

// reset empties the directory, retaining chunk allocations.
func (d *directory) reset() {
	d.pages.ForEach(func(_ addr.PageNum, dp *dirPage) { *dp = dirPage{} })
}

// Hierarchy is the full multi-core cache system in front of the memory
// controller.
type Hierarchy struct {
	cfg Config
	l1  []*cache.Cache
	l2  []*cache.Cache
	l3  *cache.Cache
	l4  *cache.Cache
	dir directory
	mc  *memctrl.Controller

	invalidations stats.Counter // coherence invalidation messages
	interventions stats.Counter // dirty-owner interventions
	llcMisses     stats.Counter
	pageInvals    stats.Counter // shred-driven page invalidations

	bus *obs.Bus // nil unless observability is enabled
}

// SetBus attaches the observability event bus (nil disables).
func (h *Hierarchy) SetBus(b *obs.Bus) { h.bus = b }

// New creates a hierarchy in front of mc. It panics on a core count
// Validate rejects, since the hierarchy is static configuration.
func New(cfg Config, mc *memctrl.Controller) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	h := &Hierarchy{
		cfg: cfg,
		l3:  cache.New(cfg.L3),
		l4:  cache.New(cfg.L4),
		mc:  mc,
	}
	for i := 0; i < cfg.Cores; i++ {
		l1cfg, l2cfg := cfg.L1, cfg.L2
		l1cfg.Name = fmt.Sprintf("l1.%d", i)
		l2cfg.Name = fmt.Sprintf("l2.%d", i)
		h.l1 = append(h.l1, cache.New(l1cfg))
		h.l2 = append(h.l2, cache.New(l2cfg))
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Controller returns the memory controller behind the hierarchy.
func (h *Hierarchy) Controller() *memctrl.Controller { return h.mc }

// Read services a load from the given core for the block containing a,
// returning the access latency the core observes.
func (h *Hierarchy) Read(core int, a addr.Phys) clock.Cycles {
	a = a.Block()
	lat := h.cfg.L1.HitLatency
	if h.l1[core].LookupHit(a) {
		return lat
	}
	// The core's sharer bit is set exactly when its L2 holds the block
	// (invariant 3 of CheckInvariants), so a clear bit is an L2 miss.
	lat += h.cfg.L2.HitLatency
	dp, bi := h.dir.page(a.Page()), a.BlockIndex()
	if dp.sharers[bi]&(1<<core) != 0 {
		if v, ev, _ := h.l1[core].Fill(a, h.l2[core].Lookup(a).State(), false); ev {
			h.evictFromL1(core, v)
		}
		return lat
	}
	h.l2[core].Miss()
	// Private miss: consult the directory for a dirty remote copy, and
	// downgrade any remote Exclusive copy to Shared (it is no longer the
	// sole copy once this read completes).
	if others := dp.sharers[bi] &^ (1 << core); others != 0 {
		if dp.modified&(1<<bi) != 0 {
			// The remote owner is the block's only sharer.
			h.intervene(a, bits.TrailingZeros8(others))
			dp.modified &^= 1 << bi
			lat += CoherencePenalty
		}
		for ; others != 0; others &= others - 1 {
			c := bits.TrailingZeros8(others)
			if l := h.l1[c].Probe(a); l != nil && l.State() == cache.Exclusive {
				l.SetState(cache.Shared)
			}
			if l := h.l2[c].Probe(a); l != nil && l.State() == cache.Exclusive {
				l.SetState(cache.Shared)
			}
		}
	}
	lat += h.fetchShared(dp, a)
	state := cache.Shared
	if dp.sharers[bi] == 0 {
		state = cache.Exclusive
	}
	dp.sharers[bi] |= 1 << core
	h.fillPrivate(core, a, state, false)
	return lat
}

// Write services a store from the given core for the block containing a.
// The architectural data is assumed already applied to the functional
// image by the caller; the hierarchy models allocation, coherence and
// dirtiness.
func (h *Hierarchy) Write(core int, a addr.Phys) clock.Cycles {
	a = a.Block()
	lat := h.cfg.L1.HitLatency
	dp, bi := h.dir.page(a.Page()), a.BlockIndex()
	private := dp.sharers[bi]&(1<<core) != 0 // the core's L2 holds the block
	if private {
		if l := h.l1[core].LookupOwned(a); l != nil {
			l.SetState(cache.Modified)
			l.SetDirty(true)
			dp.own(bi, core)
			return lat
		}
	}

	// Need ownership: invalidate all other private copies. A remote
	// Modified copy's owner is the block's only sharer, and ownership
	// migrates dirty: the remote M data is the architectural content and
	// must not be dropped.
	others := dp.sharers[bi] &^ (1 << core)
	inheritDirty := others != 0 && dp.modified&(1<<bi) != 0
	for m := others; m != 0; m &= m - 1 {
		if h.discardPrivate(bits.TrailingZeros8(m), a) {
			inheritDirty = true
		}
		h.invalidations.Inc()
		lat += CoherencePenalty
	}
	// Record the new owner before the fills below: a back-invalidation
	// they cause then sees a mask that covers every private copy.
	dp.own(bi, core)

	if private {
		// Upgrade in place. L2 holds the block, so its Insert evicts
		// nothing; L1 may have lost it.
		h.l2[core].Insert(a, cache.Modified, true)
		if v, ev := h.l1[core].Insert(a, cache.Modified, true); ev {
			h.evictFromL1(core, v)
		}
	} else {
		// Write-allocate: fetch the block, then modify.
		lat += h.cfg.L2.HitLatency + h.fetchShared(dp, a)
		h.fillPrivate(core, a, cache.Modified, true)
	}
	if inheritDirty {
		if l := h.l1[core].Probe(a); l != nil {
			l.SetDirty(true)
		}
	}
	return lat
}

// fetchShared brings block a of dp's page into L3 for a private miss,
// returning the latency from L3 down. L4 holds the block exactly when its
// held bit is set (invariant 5), and L3 exactly when its ways byte has
// the inL3 bit (invariant 6), and the byte names both ways: a clear held
// bit settles both lookups as misses; a set one is an L3 hit at the
// recorded way, or else an L3 miss and an L4 hit at its way.
func (h *Hierarchy) fetchShared(dp *dirPage, a addr.Phys) clock.Cycles {
	lat := h.cfg.L3.HitLatency + h.cfg.L4.HitLatency
	bi := a.BlockIndex()
	if bit := uint64(1) << bi; dp.held&bit != 0 {
		w := dp.ways[bi]
		if w&inL3 != 0 {
			h.l3.HitAt(a, l3Way(w))
			return h.cfg.L3.HitLatency
		}
		h.l3.Miss()
		h.l4.HitAt(a, l4Way(w))
	} else {
		h.l3.Miss()
		h.l4.Miss()
		h.llcMisses.Inc()
		lat += h.mc.ReadBlock(a, nil)
		dp.held |= bit
		v, ev, way := h.l4.Fill(a, cache.Shared, false)
		dp.ways[bi] = uint8(way)
		// An L4 victim leaves every level above (inclusion) and is
		// written back to NVM if any copy of it was dirty.
		if ev {
			if va := v.Addr(); h.uncache(h.dir.pages.Get(va.Page()), va) || v.Dirty {
				h.mc.WriteBlock(va)
			}
		}
	}
	v, ev, way := h.l3.Fill(a, cache.Shared, false)
	dp.ways[bi] = dp.ways[bi]&l4WayMask | uint8(way)<<l3WayShift | inL3
	// An L3 victim leaves the private caches, and its dirtiness folds
	// into its L4 line.
	if ev {
		va := v.Addr()
		vp := h.dir.pages.Get(va.Page())
		if h.backInvalidate(vp, va) || v.Dirty {
			vi := va.BlockIndex()
			if vp.held&(1<<vi) == 0 {
				panic(fmt.Sprintf("hier: dirty L3 victim %v is not in L4 (inclusion)", va))
			}
			h.l4.At(va, l4Way(vp.ways[vi])).SetDirty(true)
		}
	}
	return lat
}

// WriteNonTemporal performs a cache-bypassing store of the whole block at
// a (e.g. movntq zeroing): any cached copies are invalidated — their
// contents are superseded, so nothing is written back — and the block is
// written through the memory controller. The returned latency is the
// core-visible occupancy; the NVM write itself is posted via the write
// queue.
func (h *Hierarchy) WriteNonTemporal(a addr.Phys) clock.Cycles {
	a = a.Block()
	if dp, bi := h.dir.pages.Get(a.Page()), a.BlockIndex(); dp != nil && dp.held&(1<<bi) != 0 {
		h.uncache(dp, a)
		h.l4.InvalidateAt(a, l4Way(dp.ways[bi]))
	}
	h.mc.WriteBlock(a)
	return NTStoreCycles
}

// ShredInvalidate removes every block of page p from every cache level
// without writing anything back (the contents are dead once the page is
// shredded), and empties the page's directory record. It returns the
// number of invalidation messages, one per private L1 or L2 line
// removed, which the kernel's shred path charges time for. It visits
// only the blocks the record holds in L4, which by inclusion are all
// the page's cached blocks, their private copies only in the cores the
// sharer masks name (directory coverage, invariant 3 of
// CheckInvariants), and their shared copies at the ways the record
// names (invariant 6).
func (h *Hierarchy) ShredInvalidate(p addr.PageNum) int {
	h.pageInvals.Inc()
	msgs := 0
	if dp := h.dir.pages.Get(p); dp != nil {
		for held := dp.held; held != 0; held &= held - 1 {
			bi := bits.TrailingZeros64(held)
			a := p.BlockAddr(bi)
			for m := dp.sharers[bi]; m != 0; m &= m - 1 {
				c := bits.TrailingZeros8(m)
				if _, ok := h.l1[c].Invalidate(a); ok {
					msgs++
				}
				if _, ok := h.l2[c].Invalidate(a); ok {
					msgs++
				}
			}
			w := dp.ways[bi]
			if w&inL3 != 0 {
				h.l3.InvalidateAt(a, l3Way(w))
			}
			h.l4.InvalidateAt(a, l4Way(w))
		}
		*dp = dirPage{}
	}
	h.bus.Emit(obs.EvPageInval, uint64(p.Addr()), uint64(msgs))
	return msgs
}

// intervene downgrades core c, the dirty owner of block a, to Shared,
// pushing its data into the shared levels (marked dirty there). Core c's
// copy keeps the block in L3 and L4 (inclusion), so their Inserts evict
// nothing.
func (h *Hierarchy) intervene(a addr.Phys, c int) {
	h.interventions.Inc()
	if l := h.l1[c].Probe(a); l != nil {
		l.SetState(cache.Shared)
		l.SetDirty(false)
	}
	if l := h.l2[c].Probe(a); l != nil {
		l.SetState(cache.Shared)
		l.SetDirty(false)
	}
	h.l3.Insert(a, cache.Shared, true)
	h.l4.Insert(a, cache.Shared, false)
}

// discardPrivate invalidates a from core c's private caches, returning
// whether a dirty copy was discarded.
func (h *Hierarchy) discardPrivate(c int, a addr.Phys) bool {
	dirty := false
	if l, ok := h.l1[c].Invalidate(a); ok && l.Dirty {
		dirty = true
	}
	if l, ok := h.l2[c].Invalidate(a); ok && l.Dirty {
		dirty = true
	}
	return dirty
}

// backInvalidate, for block a leaving L3, clears its inL3 bit, discards
// it from the private caches of the cores its page record dp names and
// drops its entry, reporting whether a discarded copy was dirty. Every
// block L3 holds has a record, since only fetchShared fills L3.
// Directory coverage (invariant 3 of CheckInvariants) makes the filter
// exact: a core the mask leaves out holds no copy.
func (h *Hierarchy) backInvalidate(dp *dirPage, a addr.Phys) bool {
	bi := a.BlockIndex()
	dp.ways[bi] &^= inL3
	if dp.sharers[bi] == 0 {
		return false
	}
	dirty := false
	for m := dp.sharers[bi]; m != 0; m &= m - 1 {
		if h.discardPrivate(bits.TrailingZeros8(m), a) {
			dirty = true
		}
	}
	dp.sharers[bi] = 0
	dp.modified &^= 1 << bi
	return dirty
}

// uncache removes block a, of dp's page, from every level above L4 and
// clears its held bit, for a caller that takes it out of L4, reporting
// whether a removed copy was dirty. dp is nil for a page without a
// record, which only the trace-replay benchmark's ladder puts in L4 (it
// fills L4 directly); no level above L4 holds such a block, since only
// fetchShared, which records the block, fills L3.
func (h *Hierarchy) uncache(dp *dirPage, a addr.Phys) bool {
	if dp == nil {
		return false
	}
	bi := a.BlockIndex()
	dp.held &^= 1 << bi
	w := dp.ways[bi]
	dirty := h.backInvalidate(dp, a)
	if w&inL3 != 0 && h.l3.InvalidateAt(a, l3Way(w)).Dirty {
		dirty = true
	}
	return dirty
}

// fillPrivate installs a, which core's private caches do not hold, into
// its L2 then L1.
func (h *Hierarchy) fillPrivate(core int, a addr.Phys, st cache.State, dirty bool) {
	if v, ev, _ := h.l2[core].Fill(a, st, dirty); ev {
		h.evictFromL2(core, v)
	}
	if v, ev, _ := h.l1[core].Fill(a, st, dirty); ev {
		h.evictFromL1(core, v)
	}
}

// evictFromL1 handles an L1 victim of core: a dirty one folds into L2,
// which holds it (inclusion).
func (h *Hierarchy) evictFromL1(core int, v cache.Line) {
	if !v.Dirty {
		return
	}
	l := h.l2[core].Probe(v.Addr())
	if l == nil {
		panic(fmt.Sprintf("hier: dirty L1.%d victim %v is not in L2.%d (inclusion)", core, v.Addr(), core))
	}
	l.SetDirty(true)
	// A dirty fold carries ownership: the L1 copy was Modified
	// (possibly via a silent E->M upgrade the L2 never saw).
	l.SetState(cache.Modified)
}

// evictFromL2 handles an L2 victim: back-invalidate L1 (inclusion),
// propagate dirtiness to L3 at the way the directory records, update
// the directory.
func (h *Hierarchy) evictFromL2(core int, v cache.Line) {
	a := v.Addr()
	dp, bi := h.dir.pages.Get(a.Page()), a.BlockIndex()
	dirty := v.Dirty
	if l, ok := h.l1[core].Invalidate(a); ok && l.Dirty {
		dirty = true
	}
	if dirty {
		if dp.ways[bi]&inL3 == 0 {
			panic(fmt.Sprintf("hier: dirty L2.%d victim %v is not in L3 (inclusion)", core, a))
		}
		h.l3.At(a, l3Way(dp.ways[bi])).SetDirty(true)
	}
	// A Modified block's only sharer is its owner, so a block left with
	// no sharers is not Modified.
	if dp.sharers[bi] &^= 1 << core; dp.sharers[bi] == 0 {
		dp.modified &^= 1 << bi
	}
}

// FlushPage writes back and invalidates every block of page p (the
// clwb/clflush loop + fence a persistent-memory commit uses), visiting
// the blocks its held bits name in ascending order. Returns the number
// of dirty blocks written back.
func (h *Hierarchy) FlushPage(p addr.PageNum) int {
	dp := h.dir.pages.Get(p)
	if dp == nil {
		return 0
	}
	dirty := 0
	for held := dp.held; held != 0; held &= held - 1 {
		bi := bits.TrailingZeros64(held)
		a := p.BlockAddr(bi)
		wasDirty := h.uncache(dp, a)
		if h.l4.InvalidateAt(a, l4Way(dp.ways[bi])).Dirty {
			wasDirty = true
		}
		if wasDirty {
			h.mc.WriteBlock(a)
			dirty++
		}
	}
	return dirty
}

// FlushAll writes every dirty block back through the memory controller
// and empties all caches (clean shutdown / explicit wbinvd). Each block
// is written once, at its first dirty copy in the order below; the NVM
// banks' timing depends on that order. Every cached block has its held
// bit set (inclusion and invariant 5), so clearing it marks the block
// written.
func (h *Hierarchy) FlushAll() {
	flush := func(l cache.Line) {
		a := l.Addr()
		if dp, bit := h.dir.pages.Get(a.Page()), uint64(1)<<a.BlockIndex(); dp.held&bit != 0 {
			dp.held &^= bit
			h.mc.WriteBlock(a)
		}
	}
	for c := 0; c < h.cfg.Cores; c++ {
		h.l1[c].FlushAll(flush)
		h.l2[c].FlushAll(flush)
	}
	h.l3.FlushAll(flush)
	h.l4.FlushAll(flush)
	h.dir.reset()
}

// Crash drops all cache contents without writing anything back, modeling
// sudden power loss: dirty data that never reached the NVM is gone.
func (h *Hierarchy) Crash() {
	for c := 0; c < h.cfg.Cores; c++ {
		h.l1[c].FlushAll(nil)
		h.l2[c].FlushAll(nil)
	}
	h.l3.FlushAll(nil)
	h.l4.FlushAll(nil)
	h.dir.reset()
}

// L1 returns core i's L1 cache (for statistics and tests).
func (h *Hierarchy) L1(i int) *cache.Cache { return h.l1[i] }

// L2 returns core i's L2 cache.
func (h *Hierarchy) L2(i int) *cache.Cache { return h.l2[i] }

// L3 returns the shared L3 cache.
func (h *Hierarchy) L3() *cache.Cache { return h.l3 }

// L4 returns the shared L4 (last-level) cache.
func (h *Hierarchy) L4() *cache.Cache { return h.l4 }

// StatsSet exposes hierarchy-level statistics.
func (h *Hierarchy) StatsSet() *stats.Set {
	s := stats.NewSet("hier")
	s.RegisterCounter("invalidations", &h.invalidations)
	s.RegisterCounter("interventions", &h.interventions)
	s.RegisterCounter("llc_misses", &h.llcMisses)
	s.RegisterCounter("page_invalidations", &h.pageInvals)
	s.RegisterFunc("l3_miss_rate", h.l3.MissRate)
	s.RegisterFunc("l4_miss_rate", h.l4.MissRate)
	return s
}
