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

	// CoherencePenalty is charged for each invalidation or intervention
	// round trip between private caches (through the shared level).
	CoherencePenalty clock.Cycles

	// NTStoreCycles is the per-block core occupancy of a non-temporal
	// store: the store retires once the block is handed to the write
	// queue, so the core sees bus-bandwidth occupancy, not NVM write
	// latency. Table 1's 12.8GB/s × 2 channels gives ~5 cycles per 64B.
	NTStoreCycles clock.Cycles
}

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
		Cores:            n,
		L1:               cache.Config{Name: "l1", Size: 64 << 10, Assoc: 8, HitLatency: 2},
		L2:               cache.Config{Name: "l2", Size: 512 << 10, Assoc: 8, HitLatency: 8},
		L3:               cache.Config{Name: "l3", Size: 8 << 20, Assoc: 8, HitLatency: 25},
		L4:               cache.Config{Name: "l4", Size: 64 << 20, Assoc: 8, HitLatency: 35},
		CoherencePenalty: 25,
		NTStoreCycles:    5,
	}
}

// dirPage holds the directory state of one page's 64 blocks, and is the
// hierarchy's only record of which of them are cached. Bit i of held
// marks block i as held in L4, so by inclusion it covers every level.
// sharers[i] is block i's sharer mask, one bit per core whose private
// caches hold the block, and block i has an entry exactly when that
// mask is non-zero. Bit i of modified marks block i Modified; a Modified
// block's owner is its only sharer, so the mask names the owner.
type dirPage struct {
	modified, held uint64
	sharers        [addr.BlocksPerPage]uint8
}

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

// drop clears the sharer bits in mask from block a's entry. A Modified
// block's only sharer is its owner, so a block left with no sharers is
// not Modified.
func (d *directory) drop(a addr.Phys, mask uint8) {
	if dp := d.pages.Get(a.Page()); dp != nil {
		bi := a.BlockIndex()
		if dp.sharers[bi] &^= mask; dp.sharers[bi] == 0 {
			dp.modified &^= 1 << bi
		}
	}
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
	lat += h.cfg.L2.HitLatency
	if l := h.l2[core].Lookup(a); l != nil {
		h.insertL1(core, a, l.State(), false)
		return lat
	}
	// Private miss: consult the directory for a dirty remote copy, and
	// downgrade any remote Exclusive copy to Shared (it is no longer the
	// sole copy once this read completes).
	dp, bi := h.dir.page(a.Page()), a.BlockIndex()
	if others := dp.sharers[bi] &^ (1 << core); others != 0 {
		if dp.modified&(1<<bi) != 0 {
			// The remote owner is the block's only sharer.
			h.intervene(dp, a, bits.TrailingZeros8(others))
			dp.modified &^= 1 << bi
			lat += h.cfg.CoherencePenalty
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
	lat += h.cfg.L3.HitLatency
	if !h.l3.LookupHit(a) {
		lat += h.cfg.L4.HitLatency
		if !h.l4.LookupHit(a) {
			h.llcMisses.Inc()
			lat += h.mc.ReadBlock(a, nil)
			h.insertL4(dp, a)
		}
		h.insertL3(a, false)
	}
	state := cache.Shared
	if dp.sharers[bi] == 0 {
		state = cache.Exclusive
	}
	dp.sharers[bi] |= 1 << core
	h.insertPrivate(core, a, state, false)
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
	l1Line, l1Present := h.l1[core].LookupOwned(a)
	if l1Line != nil {
		l1Line.SetState(cache.Modified)
		l1Line.SetDirty(true)
		dp.own(bi, core)
		return lat
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
		lat += h.cfg.CoherencePenalty
	}
	// Record the new owner before the fills below: a back-invalidation
	// they cause then sees a mask that covers every private copy.
	dp.own(bi, core)

	// The discard loop above only touches other cores' caches, so the
	// presence result from the owned-lookup is still current.
	if l1Present || h.l2[core].Probe(a) != nil {
		// Upgrade in place.
		h.insertPrivate(core, a, cache.Modified, true)
	} else {
		// Write-allocate: fetch the block, then modify.
		lat += h.cfg.L2.HitLatency + h.cfg.L3.HitLatency
		if !h.l3.LookupHit(a) {
			lat += h.cfg.L4.HitLatency
			if !h.l4.LookupHit(a) {
				h.llcMisses.Inc()
				lat += h.mc.ReadBlock(a, nil)
				h.insertL4(dp, a)
			}
			h.insertL3(a, false)
		}
		h.insertPrivate(core, a, cache.Modified, true)
	}
	if inheritDirty {
		if l := h.l1[core].Probe(a); l != nil {
			l.SetDirty(true)
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
	h.uncache(a)
	h.l4.Invalidate(a)
	h.mc.WriteBlock(a)
	return h.cfg.NTStoreCycles
}

// ShredInvalidate removes every block of page p from every cache level
// without writing anything back (the contents are dead once the page is
// shredded), and empties the page's directory record. It returns the
// number of invalidation messages, one per private L1 or L2 line
// removed, which the kernel's shred path charges time for. It visits
// only the blocks the record holds in L4, which by inclusion are all
// the page's cached blocks, and their private copies only in the cores
// the sharer masks name (directory coverage, invariant 3 of
// CheckInvariants).
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
			h.l3.Invalidate(a)
			h.l4.Invalidate(a)
		}
		*dp = dirPage{}
	}
	h.bus.Emit(obs.EvPageInval, uint64(p.Addr()), uint64(msgs))
	return msgs
}

// intervene downgrades core c, the dirty owner of block a (of dp's
// page), to Shared, pushing its data into the shared levels (marked
// dirty there).
func (h *Hierarchy) intervene(dp *dirPage, a addr.Phys, c int) {
	h.interventions.Inc()
	if l := h.l1[c].Probe(a); l != nil {
		l.SetState(cache.Shared)
		l.SetDirty(false)
	}
	if l := h.l2[c].Probe(a); l != nil {
		l.SetState(cache.Shared)
		l.SetDirty(false)
	}
	// The dirty data now lives in L3 (inclusive), marked dirty so it is
	// eventually written back.
	h.insertL3(a, true)
	h.insertL4(dp, a)
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

// backInvalidate discards block a from the private caches of the cores
// its page record dp names and drops its entry, reporting whether a
// discarded copy was dirty. dp is nil for a page the directory has no
// record of. Directory coverage (invariant 3 of CheckInvariants) makes
// the filter exact: a core the mask leaves out holds no copy.
func (h *Hierarchy) backInvalidate(dp *dirPage, a addr.Phys) bool {
	bi := a.BlockIndex()
	if dp == nil || dp.sharers[bi] == 0 {
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

// uncache removes block a from every level above L4 and clears its held
// bit, for a caller that takes it out of L4, reporting whether a removed
// copy was dirty. A page without a record (the hierarchy never filled
// it) has no bit to clear.
func (h *Hierarchy) uncache(a addr.Phys) bool {
	dp := h.dir.pages.Get(a.Page())
	if dp != nil {
		dp.held &^= 1 << a.BlockIndex()
	}
	dirty := h.backInvalidate(dp, a)
	if l, ok := h.l3.Invalidate(a); ok && l.Dirty {
		dirty = true
	}
	return dirty
}

// insertPrivate installs a into core's L2 then L1, handling inclusive
// evictions.
func (h *Hierarchy) insertPrivate(core int, a addr.Phys, st cache.State, dirty bool) {
	if v, ev := h.l2[core].Insert(a, st, dirty); ev {
		h.evictFromL2(core, v)
	}
	h.insertL1(core, a, st, dirty)
}

func (h *Hierarchy) insertL1(core int, a addr.Phys, st cache.State, dirty bool) {
	if v, ev := h.l1[core].Insert(a, st, dirty); ev && v.Dirty {
		// A dirty L1 victim folds into L2, which holds it (inclusion).
		l := h.l2[core].Probe(v.Addr())
		if l == nil {
			panic(fmt.Sprintf("hier: dirty L1.%d victim %v is not in L2.%d (inclusion)", core, v.Addr(), core))
		}
		l.SetDirty(true)
		// A dirty fold carries ownership: the L1 copy was Modified
		// (possibly via a silent E->M upgrade the L2 never saw).
		l.SetState(cache.Modified)
	}
}

// evictFromL2 handles an L2 victim: back-invalidate L1 (inclusion),
// propagate dirtiness to L3, update the directory.
func (h *Hierarchy) evictFromL2(core int, v cache.Line) {
	a := v.Addr()
	dirty := v.Dirty
	if l, ok := h.l1[core].Invalidate(a); ok && l.Dirty {
		dirty = true
	}
	if dirty {
		l := h.l3.Probe(a)
		if l == nil {
			panic(fmt.Sprintf("hier: dirty L2.%d victim %v is not in L3 (inclusion)", core, a))
		}
		l.SetDirty(true)
	}
	h.dir.drop(a, 1<<core)
}

// insertL3 installs a into L3, handling the victim (back-invalidate the
// private caches, fold dirtiness into L4).
func (h *Hierarchy) insertL3(a addr.Phys, dirty bool) {
	v, ev := h.l3.Insert(a, cache.Shared, dirty)
	if !ev {
		return
	}
	va := v.Addr()
	if h.backInvalidate(h.dir.pages.Get(va.Page()), va) || v.Dirty {
		l := h.l4.Probe(va)
		if l == nil {
			panic(fmt.Sprintf("hier: dirty L3 victim %v is not in L4 (inclusion)", va))
		}
		l.SetDirty(true)
	}
}

// insertL4 installs a, a block of dp's page, into L4 and sets its held
// bit. A victim leaves every level above (inclusion) and is written back
// to NVM if any copy of it was dirty.
func (h *Hierarchy) insertL4(dp *dirPage, a addr.Phys) {
	v, ev := h.l4.Insert(a, cache.Shared, false)
	dp.held |= 1 << a.BlockIndex()
	if !ev {
		return
	}
	if va := v.Addr(); h.uncache(va) || v.Dirty {
		h.mc.WriteBlock(va)
	}
}

// FlushPage writes back and invalidates every block of page p (the
// clwb/clflush loop + fence a persistent-memory commit uses). Returns the
// number of dirty blocks written back.
func (h *Hierarchy) FlushPage(p addr.PageNum) int {
	dirty := 0
	for i := 0; i < addr.BlocksPerPage; i++ {
		a := p.BlockAddr(i)
		wasDirty := h.uncache(a)
		if l, ok := h.l4.Invalidate(a); ok && l.Dirty {
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
// banks' timing depends on that order.
func (h *Hierarchy) FlushAll() {
	var written blockSet
	flush := func(lines []cache.Line) {
		for _, l := range lines {
			if written.add(l.Addr()) {
				h.mc.WriteBlock(l.Addr())
			}
		}
	}
	for c := 0; c < h.cfg.Cores; c++ {
		flush(h.l1[c].FlushAll())
		flush(h.l2[c].FlushAll())
	}
	flush(h.l3.FlushAll())
	flush(h.l4.FlushAll())
	h.dir.reset()
}

// blockSet is a set of block addresses kept as one 64-bit mask per
// page in a page table. The zero value is an empty set.
type blockSet struct {
	pages addr.PageTable[uint64]
}

// add inserts block a, reporting whether it was absent.
func (s *blockSet) add(a addr.Phys) bool {
	p, bit := a.Page(), uint64(1)<<a.BlockIndex()
	m := s.pages.Get(p)
	s.pages.Set(p, m|bit)
	return m&bit == 0
}

// Crash drops all cache contents without writing anything back, modeling
// sudden power loss: dirty data that never reached the NVM is gone.
func (h *Hierarchy) Crash() {
	for c := 0; c < h.cfg.Cores; c++ {
		h.l1[c].FlushAll()
		h.l2[c].FlushAll()
	}
	h.l3.FlushAll()
	h.l4.FlushAll()
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

// LLCMisses returns the number of L4 misses serviced by the controller.
func (h *Hierarchy) LLCMisses() uint64 { return h.llcMisses.Value() }

// Invalidations returns coherence invalidation messages sent.
func (h *Hierarchy) Invalidations() uint64 { return h.invalidations.Value() }

// Interventions returns dirty-owner interventions.
func (h *Hierarchy) Interventions() uint64 { return h.interventions.Value() }

// ResetStats clears hierarchy and cache statistics.
func (h *Hierarchy) ResetStats() {
	for c := 0; c < h.cfg.Cores; c++ {
		h.l1[c].ResetStats()
		h.l2[c].ResetStats()
	}
	h.l3.ResetStats()
	h.l4.ResetStats()
	h.invalidations.Reset()
	h.interventions.Reset()
	h.llcMisses.Reset()
	h.pageInvals.Reset()
}

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
