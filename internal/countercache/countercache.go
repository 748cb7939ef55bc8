// Package countercache implements the on-chip cache of encryption counter
// blocks (the "IV cache" of the paper's Figure 2 and §6.4).
//
// One 64-byte counter block per 4KB page holds the page's 64-bit major
// counter and 64 seven-bit minor counters. Counter blocks live in a
// reserved region of the NVM; this cache keeps the hot ones on chip so pad
// generation can start immediately (the paper sizes it at 4MB, 8-way,
// 10-cycle hits — the knee of the miss-rate curve in Figure 12).
//
// Persistence (paper §4.3/§7.1): the cache is either write-back and
// battery-backed (dirty counters are flushed on power loss) or
// write-through (every counter update is immediately propagated to NVM).
// Crash simulates both: an unflushed write-back cache without a battery
// loses counter updates, which the integration tests use to demonstrate
// why persistence of the counters is a correctness requirement for
// shredding.
package countercache

import (
	"fmt"

	"silentshredder/internal/addr"
	"silentshredder/internal/cache"
	"silentshredder/internal/clock"
	"silentshredder/internal/ctr"
	"silentshredder/internal/nvm"
	"silentshredder/internal/obs"
	"silentshredder/internal/stats"
)

// RegionBase is the base physical address of the counter region in NVM.
// It sits far above any address the page allocator hands out, so counter
// traffic and data traffic are distinguishable in the device statistics.
const RegionBase addr.Phys = 1 << 46

// Config describes the counter cache.
type Config struct {
	Size          int          // bytes (Table 1: 4MB)
	Assoc         int          // ways (Table 1: 8)
	HitLatency    clock.Cycles // Table 1: 10 cycles
	WriteThrough  bool         // false: write-back (assumed battery-backed)
	BatteryBacked bool         // write-back only: flush dirty counters on power loss
}

// DefaultConfig returns the paper's Table 1 counter-cache configuration.
func DefaultConfig() Config {
	return Config{Size: 4 << 20, Assoc: 8, HitLatency: 10, BatteryBacked: true}
}

// Backend mediates the cache's device traffic. When set (the memory
// controller's ECC/fault layer installs itself here), counter fetches and
// writebacks go through it instead of hitting the NVM device directly, so
// counter blocks get the same error correction and line retirement as data
// blocks. When nil, traffic goes straight to the device — the default,
// byte-identical-with-the-seed path.
type Backend interface {
	// ReadCounters models fetching the 64-byte counter line at a (a
	// RegionBase-relative counter address) and returns the latency.
	ReadCounters(a addr.Phys) clock.Cycles
	// WriteCounters persists enc (a 64-byte encoded counter block) at a.
	WriteCounters(a addr.Phys, enc []byte)
}

// Cache is the counter cache plus its NVM-resident backing region.
type Cache struct {
	cfg  Config
	tags *cache.Cache
	// cached holds the contents of each resident line, by data page.
	cached addr.PageTable[*ctr.CounterBlock]
	// region holds the NVM-resident (persistent) values. A page that was
	// never persisted has no entry, which ForEachPersisted tells apart
	// from a persisted all-zero block.
	region  addr.PageTable[*ctr.CounterBlock]
	dev     *nvm.Device
	backend Backend  // optional ECC/fault mediation layer
	bus     *obs.Bus // nil unless observability is enabled

	// persistHook, when set, fires as each page's counter block is
	// written back to the persistence domain (eviction or Flush). The
	// integrity engine uses it to enforce persist ordering: the Merkle
	// root must cover a counter block before that block becomes durable.
	persistHook func(addr.PageNum)

	fetches, writebacks, writeThroughs stats.Counter
}

// New creates a counter cache backed by dev (counter fetch/writeback
// traffic is issued to dev at RegionBase-relative addresses).
func New(cfg Config, dev *nvm.Device) *Cache {
	return &Cache{
		cfg:  cfg,
		tags: cache.New(cfg.Tags()),
		dev:  dev,
	}
}

// Tags returns the geometry of the counter cache's tag store.
func (c Config) Tags() cache.Config {
	return cache.Config{Name: "ctrcache", Size: c.Size, Assoc: c.Assoc, HitLatency: c.HitLatency}
}

// SetBackend installs a device-traffic mediation layer (ECC). Pass nil to
// restore direct device access.
func (c *Cache) SetBackend(b Backend) { c.backend = b }

// SetBus attaches the observability event bus (nil disables).
func (c *Cache) SetBus(b *obs.Bus) { c.bus = b }

// SetPersistHook installs fn to be called as each page's counters are
// written back to the persistence domain (nil disables). Write-through
// mutations do not fire it: the controller orders the tree update after
// MarkDirty, so at write-through time there is nothing pending to
// persist yet — machine-level barriers cover that mode.
func (c *Cache) SetPersistHook(fn func(addr.PageNum)) { c.persistHook = fn }

// PageOf translates a counter-region physical address back to the page
// whose counters it holds. The ECC layer uses it to identify which page a
// failed counter line belongs to.
func (c *Cache) PageOf(ctrA addr.Phys) addr.PageNum { return pageOfCtrAddr(ctrA) }

// readDev issues a counter-line read, through the backend when one is set.
func (c *Cache) readDev(a addr.Phys) clock.Cycles {
	if c.backend != nil {
		return c.backend.ReadCounters(a)
	}
	return c.dev.ReadBlock(a, nil)
}

// writeDev issues a counter-line write, through the backend when one is set.
func (c *Cache) writeDev(a addr.Phys, enc []byte) {
	if c.backend != nil {
		c.backend.WriteCounters(a, enc)
		return
	}
	c.dev.WriteBlock(a, enc)
}

func ctrAddr(p addr.PageNum) addr.Phys {
	return RegionBase + addr.Phys(p)<<addr.BlockShift
}

func pageOfCtrAddr(a addr.Phys) addr.PageNum {
	return addr.PageNum((a - RegionBase) >> addr.BlockShift)
}

// Get returns the counter block for page p and the latency to obtain it.
// On a miss the block is fetched from the counter region in NVM (counted
// as a device read) and inserted, possibly writing back a dirty victim.
// The returned pointer is the live cached copy: mutations through it must
// be followed by MarkDirty.
func (c *Cache) Get(p addr.PageNum) (*ctr.CounterBlock, clock.Cycles, bool) {
	if c.tags.Lookup(ctrAddr(p)) != nil {
		c.bus.Emit(obs.EvCtrHit, uint64(p.Addr()), 0)
		return c.cached.Get(p), c.cfg.HitLatency, true
	}
	// Miss: fetch from NVM.
	c.bus.Emit(obs.EvCtrMiss, uint64(p.Addr()), 0)
	c.fetches.Inc()
	lat := c.cfg.HitLatency + c.readDev(ctrAddr(p))
	cb := c.PersistedValue(p) // zero value = fresh page (major 0, all minors 0)
	c.install(p, &cb, false)
	return c.cached.Get(p), lat, false
}

// Rehit counts a Get of page p that the caller knows hits the most
// recently used way of its set: p's block was fetched by Get, and no
// tag-store lookup has run since. It returns the hit latency, counts
// the hit and emits the event exactly as Get would, and probes nothing,
// since an MRU hit moves no LRU state.
func (c *Cache) Rehit(p addr.PageNum) clock.Cycles {
	c.tags.Hit()
	c.bus.Emit(obs.EvCtrHit, uint64(p.Addr()), 0)
	return c.cfg.HitLatency
}

// install inserts page p's counter block, which the tag store does not
// hold, handling victim writeback.
func (c *Cache) install(p addr.PageNum, cb *ctr.CounterBlock, dirty bool) {
	victim, evicted, _ := c.tags.Fill(ctrAddr(p), cache.Exclusive, dirty)
	if evicted {
		vp := pageOfCtrAddr(victim.Addr())
		if victim.Dirty {
			c.bus.Emit(obs.EvCtrEvict, uint64(vp.Addr()), 0)
			c.writebackPage(vp)
		}
		c.cached.Set(vp, nil)
	}
	c.cached.Set(p, cb)
}

func (c *Cache) writebackPage(p addr.PageNum) {
	cb := c.cached.Get(p)
	if cb == nil {
		return
	}
	// Root-before-data: the integrity engine must cover this block in
	// its root register before the block itself becomes durable.
	if c.persistHook != nil {
		c.persistHook(p)
	}
	c.persist(p, *cb)
	c.writebacks.Inc()
	enc := cb.Encode()
	c.writeDev(ctrAddr(p), enc[:])
}

// MarkDirty records that page p's cached counter block was mutated. In
// write-through mode the update is immediately propagated to NVM (the
// write is posted, so no latency is charged to the caller); in write-back
// mode the line is marked dirty and written back on eviction or flush.
func (c *Cache) MarkDirty(p addr.PageNum) {
	l := c.tags.Probe(ctrAddr(p))
	if l == nil {
		return // not resident; nothing to persist (caller must hold a Get'd block)
	}
	if c.cfg.WriteThrough {
		c.writeThroughs.Inc()
		if cb := c.cached.Get(p); cb != nil {
			c.persist(p, *cb)
			enc := cb.Encode()
			c.writeDev(ctrAddr(p), enc[:])
		}
		return
	}
	l.SetDirty(true)
}

// Flush writes back every dirty counter block, leaving contents resident
// but clean. A clean shutdown (or the battery on power loss) does this.
// Writebacks are issued in ascending page order so the NVM device's
// order-dependent bank timing sees the same access sequence on every run
// — checkpoint/replay equivalence depends on it.
func (c *Cache) Flush() {
	c.cached.ForEach(func(p addr.PageNum, _ *ctr.CounterBlock) {
		if l := c.tags.Probe(ctrAddr(p)); l != nil && l.Dirty() {
			c.writebackPage(p)
			l.SetDirty(false)
		}
	})
}

// Crash models sudden power loss: with a battery (or in write-through
// mode) dirty counters reach NVM; otherwise they are lost and the
// NVM-resident values are what the system reboots with. The cache is
// emptied either way.
func (c *Cache) Crash() {
	if c.cfg.WriteThrough || c.cfg.BatteryBacked {
		c.Flush()
	}
	c.tags.FlushAll(nil)
	c.cached.Reset()
}

// Peek returns the architecturally current counter block value for page p
// (cached copy if resident, else the NVM-resident value) without modeling
// an access. Tests and the integrity layer use it.
func (c *Cache) Peek(p addr.PageNum) ctr.CounterBlock {
	if cb := c.cached.Get(p); cb != nil {
		return *cb
	}
	return c.PersistedValue(p)
}

// PersistedValue returns the NVM-resident counter block for page p,
// ignoring any dirty cached copy. After Crash without a battery this is
// the state the system sees.
func (c *Cache) PersistedValue(p addr.PageNum) ctr.CounterBlock {
	if cb := c.region.Get(p); cb != nil {
		return *cb
	}
	return ctr.CounterBlock{}
}

// persist stores cb as page p's NVM-resident value.
func (c *Cache) persist(p addr.PageNum, cb ctr.CounterBlock) {
	if r := c.region.Get(p); r != nil {
		*r = cb
		return
	}
	c.region.Set(p, &cb)
}

// SnapshotRegion exports the NVM-resident counter region (checkpointing).
func (c *Cache) SnapshotRegion() map[addr.PageNum]ctr.CounterBlock {
	out := make(map[addr.PageNum]ctr.CounterBlock)
	c.ForEachPersisted(func(p addr.PageNum, cb ctr.CounterBlock) { out[p] = cb })
	return out
}

// RestoreRegion replaces the counter region and empties the cache (a
// restored machine boots with cold counter caches).
func (c *Cache) RestoreRegion(region map[addr.PageNum]ctr.CounterBlock) {
	c.region.Reset()
	for p, cb := range region {
		c.persist(p, cb)
	}
	c.tags.FlushAll(nil)
	c.cached.Reset()
}

// TamperPersisted overwrites page p's NVM-resident counter block without
// any of the controller's bookkeeping — the §7.1 attack where an
// adversary with physical access rolls counters back or forges them. The
// integrity tree (when enabled) must catch the next fetch.
func (c *Cache) TamperPersisted(p addr.PageNum, cb ctr.CounterBlock) { c.persist(p, cb) }

// ForEachPersisted calls fn for every page with an NVM-resident counter
// block, in ascending page order. Crash recovery uses it to find pages
// whose state is encoded only in the counters (e.g. shredded pages that
// were never written back).
func (c *Cache) ForEachPersisted(fn func(p addr.PageNum, cb ctr.CounterBlock)) {
	c.region.ForEach(func(p addr.PageNum, cb *ctr.CounterBlock) { fn(p, *cb) })
}

// ForEachCurrent calls fn for every page with counter state, passing the
// architecturally current value (cached copy when resident, NVM-resident
// value otherwise) in ascending page order. Invariant sweeps use it. It
// merges the ascending walks of the resident and the persisted pages.
func (c *Cache) ForEachCurrent(fn func(p addr.PageNum, cb ctr.CounterBlock)) {
	var res []addr.PageNum
	c.cached.ForEach(func(p addr.PageNum, _ *ctr.CounterBlock) { res = append(res, p) })
	i := 0
	c.region.ForEach(func(p addr.PageNum, _ *ctr.CounterBlock) {
		for ; i < len(res) && res[i] <= p; i++ {
			if res[i] < p {
				fn(res[i], c.Peek(res[i]))
			}
		}
		fn(p, c.Peek(p))
	})
	for ; i < len(res); i++ {
		fn(res[i], c.Peek(res[i]))
	}
}

// CheckCoherence validates the cache's internal consistency:
//
//  1. tag/content pairing — every resident tag has a cached counter block
//     and vice versa;
//  2. clean-line coherence — a resident line that is not dirty must hold
//     exactly the NVM-resident value (it was fetched or written back and
//     not mutated since);
//  3. write-through coherence — in write-through mode no line is ever
//     dirty and every cached value matches NVM.
//
// A violation means counter updates were lost or applied outside the
// MarkDirty protocol — exactly the class of bug that silently breaks pad
// uniqueness.
func (c *Cache) CheckCoherence() error {
	tagged := make(map[addr.PageNum]bool)
	var err error
	c.tags.ForEachLine(func(l cache.Line) {
		if err != nil {
			return
		}
		p := pageOfCtrAddr(l.Addr())
		tagged[p] = true
		cb := c.cached.Get(p)
		if cb == nil {
			err = fmt.Errorf("countercache: %v tagged resident but has no cached counter block", p)
			return
		}
		if c.cfg.WriteThrough && l.Dirty {
			err = fmt.Errorf("countercache: %v dirty in write-through mode", p)
			return
		}
		if nv := c.PersistedValue(p); !l.Dirty && *cb != nv {
			err = fmt.Errorf("countercache: %v clean cached counters diverge from NVM (cached major=%d, NVM major=%d)",
				p, cb.Major, nv.Major)
		}
	})
	if err != nil {
		return err
	}
	c.cached.ForEach(func(p addr.PageNum, _ *ctr.CounterBlock) {
		if err == nil && !tagged[p] {
			err = fmt.Errorf("countercache: %v has cached contents but no resident tag", p)
		}
	})
	return err
}

// MissRate returns the tag-store miss rate.
func (c *Cache) MissRate() float64 { return c.tags.MissRate() }

// ResetStats clears access statistics, leaving contents intact.
func (c *Cache) ResetStats() {
	c.tags.ResetStats()
	c.fetches.Reset()
	c.writebacks.Reset()
	c.writeThroughs.Reset()
}

// StatsSet exposes counter-cache statistics.
func (c *Cache) StatsSet() *stats.Set {
	s := stats.NewSet("ctrcache")
	s.RegisterFunc("hits", func() float64 { return float64(c.tags.Hits()) })
	s.RegisterFunc("misses", func() float64 { return float64(c.tags.Misses()) })
	s.RegisterFunc("miss_rate", c.MissRate)
	s.RegisterCounter("fetches", &c.fetches)
	s.RegisterCounter("writebacks", &c.writebacks)
	s.RegisterCounter("write_throughs", &c.writeThroughs)
	return s
}
