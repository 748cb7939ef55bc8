// Package cache implements the set-associative cache tag store used for
// every level of the simulated hierarchy (Table 1: L1 64KB / L2 512KB /
// L3 8MB / L4 64MB, all 8-way, 64B blocks), for the counter cache and
// for the TLBs, whose entries are blocks tagged with a packed (ASID,
// VPN) key.
//
// Caches here are timing/state models: they track presence, MESI state,
// dirtiness and LRU order, while actual data contents live in the machine's
// physical-memory image (see internal/physmem). That split keeps the cache
// model small and lets timing-only experiments run without data storage.
//
// The store is laid out for the host running the simulation. Each way is
// one 64-bit Way word holding the block's tag, dirty bit and MESI state,
// so an 8-way set is exactly one 64-byte host cache line, and a probe,
// a hit and a state or dirty update all stay inside it. A set's LRU
// order is one 32-bit rank word, a nibble per way, kept apart from the
// ways, so sixteen sets' rank words share a host line. Counting host
// cache lines per operation:
//
//   - Lookup, LookupHit: the set's line plus its LRU rank word (2).
//   - Probe, and a state or dirty update through the returned *Way: the
//     set's line (1); LookupOwned adds the rank word on an owned hit.
//   - Insert, Fill: the set's line and the rank word (2).
//   - Miss, Hit: no line (0).
//   - HitAt: the rank word (1).
//   - At, and a state or dirty update through it: the set's line (1).
//   - Invalidate, InvalidateAt: the set's line (1).
//   - InvalidatePageCount: one set line per block of the page (64),
//     however many of them the cache holds.
//
// The store keeps no per-page state. The hierarchy's coherence
// directory records which blocks of a page the caches hold, and each
// block's way in the shared levels, so a shred invalidates exactly those
// blocks, the shared copies with InvalidateAt, and a shared-level hit or
// dirty fold on a block the directory places goes straight to its way.
package cache

import (
	"fmt"
	"math/bits"

	"silentshredder/internal/addr"
	"silentshredder/internal/clock"
	"silentshredder/internal/stats"
)

// State is a MESI coherence state.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// Config describes one cache.
type Config struct {
	Name       string
	Size       int // total bytes; must be a multiple of Assoc*BlockSize
	Assoc      int
	HitLatency clock.Cycles
}

// Line is a copy of one cache line's metadata, as Insert, Invalidate,
// FlushAll and ForEachLine hand it out.
type Line struct {
	Tag   uint64 // block address >> BlockShift
	State State
	Dirty bool
}

// Addr returns the block address this line caches.
func (l Line) Addr() addr.Phys { return addr.Phys(l.Tag) << addr.BlockShift }

// Way is one way of a set packed into a word: the block tag (block
// address >> BlockShift) in bits 0-57, the dirty bit in bit 58 and the
// MESI state in bits 59-60. Lookup, LookupOwned and Probe return a
// pointer into the store, through which callers read and update the
// line's state and dirtiness.
type Way uint64

const (
	tagBits    = 58
	tagMask    = Way(1)<<tagBits - 1
	dirtyBit   = Way(1) << tagBits
	stateShift = tagBits + 1
	stateMask  = Way(3) << stateShift

	// emptyWay marks a way that holds no block: its tag field is all
	// ones. That would be the tag of the last 64 bytes of the 64-bit
	// physical space, far above the highest address the machine uses
	// (the counter region at 2^46), so a probe needs no validity test:
	// w&tagMask == tag never matches an empty way.
	emptyWay = tagMask
)

func packWay(tag uint64, st State, dirty bool) Way {
	w := Way(tag) | Way(st&3)<<stateShift
	if dirty {
		w |= dirtyBit
	}
	return w
}

// State returns the line's MESI state.
func (w Way) State() State { return State(w >> stateShift & 3) }

// SetState sets the line's MESI state.
func (w *Way) SetState(s State) { *w = *w&^stateMask | Way(s&3)<<stateShift }

// Dirty reports whether the line is dirty.
func (w Way) Dirty() bool { return w&dirtyBit != 0 }

// SetDirty sets or clears the line's dirty bit.
func (w *Way) SetDirty(d bool) {
	if d {
		*w |= dirtyBit
	} else {
		*w &^= dirtyBit
	}
}

// Addr returns the block address this line caches.
func (w Way) Addr() addr.Phys { return addr.Phys(w&tagMask) << addr.BlockShift }

func (w Way) line() Line { return Line{Tag: uint64(w & tagMask), State: w.State(), Dirty: w.Dirty()} }

// Cache is a set-associative tag store with true-LRU replacement.
//
// ways holds one Way per way, set-major (set i occupies
// [i*assoc, (i+1)*assoc)); empty ways hold emptyWay.
//
// LRU order is a permutation, not a clock: each set has one 32-bit rank
// word in which nibble i holds way i's recency rank (0 = least, assoc-1
// = most recent; unused nibbles are 0xf), which is why a cache has at
// most 8 ways. Every touch moves a way to the top rank, exactly the
// total order per-way clocks would record, in one word-sized
// read-modify-write instead of a clock array 16x the size. Hit/miss
// outcomes, LRU order, victim choice and all statistics are identical
// to the obvious array-of-structs scan.
type Cache struct {
	cfg      Config
	ways     []Way
	rank     []uint32 // one recency-rank word per set
	assoc    int
	setMask  uint64
	bodyMask uint32 // bit 3 of each rank-word nibble that is a real way
	initRank uint32 // rank word of a freshly reset set

	hits, misses stats.Counter
}

// Validate reports whether cfg is a geometry New accepts: a positive
// size that is a whole number of sets, a power-of-two set count, and an
// associativity of at most 8, the ways one rank word orders.
func (cfg Config) Validate() error {
	if cfg.Assoc <= 0 || cfg.Size <= 0 || cfg.Size%(cfg.Assoc*addr.BlockSize) != 0 {
		return fmt.Errorf("cache %s: invalid geometry size=%d assoc=%d", cfg.Name, cfg.Size, cfg.Assoc)
	}
	if nsets := cfg.Size / (cfg.Assoc * addr.BlockSize); bits.OnesCount(uint(nsets)) != 1 {
		return fmt.Errorf("cache %s: set count %d not a power of two", cfg.Name, nsets)
	}
	if cfg.Assoc > 8 {
		return fmt.Errorf("cache %s: associativity %d above 8", cfg.Name, cfg.Assoc)
	}
	return nil
}

// New creates a cache. It panics on a geometry Validate rejects, since
// cache geometry is static configuration.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	nsets := cfg.Size / (cfg.Assoc * addr.BlockSize)
	ways := make([]Way, nsets*cfg.Assoc)
	for i := range ways {
		ways[i] = emptyWay
	}
	c := &Cache{
		cfg:      cfg,
		ways:     ways,
		rank:     make([]uint32, nsets),
		assoc:    cfg.Assoc,
		setMask:  uint64(nsets - 1),
		initRank: ^uint32(0),
	}
	for i := 0; i < cfg.Assoc; i++ {
		c.initRank = c.initRank&^(0xf<<(4*uint(i))) | uint32(i)<<(4*uint(i))
		c.bodyMask |= 0x8 << (4 * uint(i))
	}
	for i := range c.rank {
		c.rank[i] = c.initRank
	}
	return c
}

// SWAR constants for the rank-word update: one set bit per nibble lane.
// A rank needs 3 bits, so bit 3 of each lane is free to act as the
// guard bit of the per-lane comparisons below.
const (
	rankLo = 0x11111111
	rankHi = 0x88888888
)

// touch moves way i of set si to the top recency rank: every way ranked
// above it slides down one, then way i takes rank assoc-1. This is the
// move-to-front step of true LRU, done bit-parallel on the rank word.
func (c *Cache) touch(si uint64, i int) {
	w := c.rank[si]
	r := w >> (4 * uint(i)) & 0xf
	// Per-nibble b > r test: bit 3 of (b|8)-(r+1) is set iff b >= r+1
	// (r+1 <= 8, so no cross-nibble borrow). Restricted to real ways.
	gt := ((w | rankHi) - (r+1)*rankLo) & c.bodyMask
	w -= gt >> 3 // slide every higher-ranked way down one
	w = w&^(0xf<<(4*uint(i))) | uint32(c.assoc-1)<<(4*uint(i))
	c.rank[si] = w
}

// mruWay returns the most-recently-used way of set si (rank assoc-1),
// from the same rank word a hit would have to touch anyway. Probing it
// first exploits temporal locality: on an MRU hit the move-to-top is a
// no-op, so the whole scan-and-touch collapses to one tag compare.
func (c *Cache) mruWay(si uint64) int {
	w := c.rank[si] ^ uint32(c.assoc-1)*rankLo
	z := (w - rankLo) & ^w & c.bodyMask
	return bits.TrailingZeros32(z) >> 2
}

// lruWay returns the least-recently-used way of set si, consulted only
// when every way is valid. Ranks are a permutation, so exactly one real
// way holds rank 0; the zero-nibble scan finds it.
func (c *Cache) lruWay(si uint64) int {
	w := c.rank[si]
	z := (w - rankLo) & ^w & c.bodyMask
	return bits.TrailingZeros32(z) >> 2
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

func tagOf(a addr.Phys) uint64 { return uint64(a) >> addr.BlockShift }

// set returns the ways of the set block tag maps to, and the set index.
func (c *Cache) set(tag uint64) ([]Way, uint64) {
	si := tag & c.setMask
	base := int(si) * c.assoc
	return c.ways[base : base+c.assoc], si
}

// probeWay returns the index in ways of the way holding block a, or -1.
func (c *Cache) probeWay(a addr.Phys) int {
	tag := tagOf(a)
	ways, si := c.set(tag)
	for i, w := range ways {
		if w&tagMask == Way(tag) {
			return int(si)*c.assoc + i
		}
	}
	return -1
}

// Lookup finds the line caching block a, counting a hit or miss and
// refreshing LRU order on a hit. It returns nil on a miss. The returned
// pointer stays valid until the line is replaced; callers may update
// the line's state and dirty bit through it.
func (c *Cache) Lookup(a addr.Phys) *Way {
	tag := tagOf(a)
	ways, si := c.set(tag)
	if m := c.mruWay(si); ways[m]&tagMask == Way(tag) {
		c.hits.Inc()
		return &ways[m]
	}
	for i, w := range ways {
		if w&tagMask == Way(tag) {
			c.hits.Inc()
			c.touch(si, i)
			return &ways[i]
		}
	}
	c.misses.Inc()
	return nil
}

// LookupHit is Lookup for callers that only need the hit/miss outcome:
// identical statistics and LRU refresh, without handing out a pointer
// (the shared-level lookups in the hierarchy's read and write paths
// need only the outcome).
func (c *Cache) LookupHit(a addr.Phys) bool {
	tag := tagOf(a)
	ways, si := c.set(tag)
	if m := c.mruWay(si); ways[m]&tagMask == Way(tag) {
		c.hits.Inc()
		return true
	}
	for i, w := range ways {
		if w&tagMask == Way(tag) {
			c.hits.Inc()
			c.touch(si, i)
			return true
		}
	}
	c.misses.Inc()
	return false
}

// LookupOwned is the store fast path: it returns the line caching block
// a only when this cache already owns it (Modified or Exclusive),
// counting a hit and refreshing LRU exactly as Lookup would on that
// line. In every other case it returns nil and no statistics change.
func (c *Cache) LookupOwned(a addr.Phys) *Way {
	i := c.probeWay(a)
	if i < 0 {
		return nil
	}
	w := &c.ways[i]
	if st := w.State(); st != Modified && st != Exclusive {
		return nil
	}
	c.hits.Inc()
	si := tagOf(a) & c.setMask
	c.touch(si, i-int(si)*c.assoc)
	return w
}

// Probe finds the line caching block a without touching statistics or LRU
// order. Coherence-directory and invalidation paths use it.
func (c *Cache) Probe(a addr.Phys) *Way {
	if i := c.probeWay(a); i >= 0 {
		return &c.ways[i]
	}
	return nil
}

// Miss counts a lookup of a block the caller knows is absent, exactly
// as a Lookup or LookupHit that misses counts it, without probing.
func (c *Cache) Miss() { c.misses.Inc() }

// Hit counts a lookup of a block the caller knows is the most recently
// used of its set, exactly as a Lookup or LookupHit that hits it counts
// it, without probing. Such a hit moves no LRU state, so counting it is
// all a lookup would do.
func (c *Cache) Hit() { c.hits.Inc() }

// HitAt counts a lookup of block a, which the caller knows sits in way
// way of its set, exactly as a Lookup or LookupHit that hits it counts
// it, and makes that way the most recently used, without comparing
// tags.
func (c *Cache) HitAt(a addr.Phys, way int) {
	c.hits.Inc()
	c.touch(tagOf(a)&c.setMask, way)
}

// At returns way way of block a's set, which the caller knows holds a,
// for state and dirty updates. It counts nothing and moves no LRU
// state, as Probe does.
func (c *Cache) At(a addr.Phys, way int) *Way {
	return &c.ways[int(tagOf(a)&c.setMask)*c.assoc+way]
}

// Insert allocates a line for block a in the given state, evicting the LRU
// line of the set if necessary. It returns the evicted line metadata (for
// writeback handling) and whether an eviction happened. Inserting a block
// that is already present just updates its state.
func (c *Cache) Insert(a addr.Phys, st State, dirty bool) (victim Line, evicted bool) {
	i := c.probeWay(a)
	if i < 0 {
		victim, evicted, _ = c.Fill(a, st, dirty)
		return victim, evicted
	}
	c.ways[i] = packWay(tagOf(a), st, dirty || c.ways[i].Dirty())
	si := tagOf(a) & c.setMask
	c.touch(si, i-int(si)*c.assoc)
	return Line{}, false
}

// Fill is Insert for a block the caller knows is absent: it takes the
// victim way by Insert's rule, the first empty way in index order or
// else the least recently used, without comparing tags, and also
// returns the way it used. Filling a present block would hold it twice.
func (c *Cache) Fill(a addr.Phys, st State, dirty bool) (victim Line, evicted bool, way int) {
	tag := tagOf(a)
	ways, si := c.set(tag)
	vi := c.lruWay(si)
	for i, w := range ways {
		if w&tagMask == emptyWay {
			vi = i
			break
		}
	}
	if old := ways[vi]; old&tagMask != emptyWay {
		victim, evicted = old.line(), true
	}
	ways[vi] = packWay(tag, st, dirty)
	c.touch(si, vi)
	return victim, evicted, vi
}

// Invalidate removes block a if present, returning the removed line
// metadata (so the caller can decide about writeback) and whether it was
// present.
func (c *Cache) Invalidate(a addr.Phys) (Line, bool) {
	if i := c.probeWay(a); i >= 0 {
		old := c.ways[i].line()
		c.ways[i] = emptyWay
		return old, true
	}
	return Line{}, false
}

// InvalidateAt removes block a, which the caller knows sits in way way
// of its set, and returns the removed line's metadata, as Invalidate
// does on a present block.
func (c *Cache) InvalidateAt(a addr.Phys, way int) Line {
	w := c.At(a, way)
	old := w.line()
	*w = emptyWay
	return old
}

// InvalidatePageCount removes every block of page p and returns how many
// were present, probing the set of each of the page's 64 blocks. The
// hierarchy's shred path does not use it: it invalidates only the blocks
// its directory records as cached.
func (c *Cache) InvalidatePageCount(p addr.PageNum) int {
	n := 0
	for i := 0; i < addr.BlocksPerPage; i++ {
		if _, ok := c.Invalidate(p.BlockAddr(i)); ok {
			n++
		}
	}
	return n
}

// FlushAll invalidates every line, handing each dirty one to dirty (when
// non-nil) in set order; its address is recoverable via Line.Addr. Used
// to model crashes and explicit cache flushes.
func (c *Cache) FlushAll(dirty func(Line)) {
	for i, w := range c.ways {
		if dirty != nil && w&tagMask != emptyWay && w.Dirty() {
			dirty(w.line())
		}
		c.ways[i] = emptyWay
	}
	for i := range c.rank {
		c.rank[i] = c.initRank
	}
}

// ForEachLine calls fn with a copy of every valid line, in set order.
// Invariant sweeps use it; it touches neither statistics nor LRU state.
func (c *Cache) ForEachLine(fn func(l Line)) {
	for _, w := range c.ways {
		if w&tagMask != emptyWay {
			fn(w.line())
		}
	}
}

// Hits returns the hit count.
func (c *Cache) Hits() uint64 { return c.hits.Value() }

// Misses returns the miss count.
func (c *Cache) Misses() uint64 { return c.misses.Value() }

// MissRate returns misses/(hits+misses), or 0 with no accesses.
func (c *Cache) MissRate() float64 {
	tot := c.hits.Value() + c.misses.Value()
	if tot == 0 {
		return 0
	}
	return float64(c.misses.Value()) / float64(tot)
}

// ResetStats clears access statistics without disturbing contents.
func (c *Cache) ResetStats() {
	c.hits.Reset()
	c.misses.Reset()
}
