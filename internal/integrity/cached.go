package integrity

import (
	"crypto/sha256"

	"silentshredder/internal/addr"
	"silentshredder/internal/clock"
	"silentshredder/internal/ctr"
	"silentshredder/internal/obs"
	"silentshredder/internal/stats"
)

// DefaultDirtyCacheNodes is the dirty-subtree cache capacity used when
// Config.DirtyCacheNodes is zero: 1024 pending leaves is 32KB of on-chip
// hash state, in line with the Bonsai cached-levels SRAM budget.
const DefaultDirtyCacheNodes = 1024

// CachedTree is the lazy engine (Streamlining Integrity Tree Updates,
// PAPERS.md): counter updates do NOT climb to the root. Instead the new
// leaf hash is parked in a bounded on-chip dirty-subtree cache and the
// ancestor path is recomputed later — per page when that page's counters
// are written back to the persistence domain, or as one coalesced batch
// at persist barriers (mc.Flush, crash cuts). Writes that hit the same
// counter block repeatedly — the common case, since a 64B counter block
// covers a page's 64 cache lines — collapse into a single deferred path
// update, and a barrier over many dirty leaves shares every common
// ancestor rehash instead of repeating it per leaf.
//
// Crash-persist ordering: the dirty cache is modeled as on-chip SRAM in
// the same ADR/persist domain as the root register, so a power cut
// drains it (the controller calls PersistBarrier before the counter
// cache's own crash handling). After any barrier the root register is
// bit-identical to the eager engine's over the same update history,
// which is what makes the reboot-time replay audit detect stale counters
// at exactly the same points.
type CachedTree struct {
	store
	cap   int             // dirty-cache capacity in leaves
	dirty map[uint64]Hash // pending leaf hashes, not yet propagated

	updates, verifies stats.Counter
	hashOps           stats.Counter
	verifyHits        stats.Counter // verifies satisfied by the dirty cache
	barriers          stats.Counter // propagation batches (per-page + barrier)
	flushHashes       stats.Counter // hash ops spent in propagation

	bus *obs.Bus
}

// NewCachedTree creates an empty lazy tree.
func NewCachedTree(cfg Config) *CachedTree {
	if cfg.DirtyCacheNodes <= 0 {
		cfg.DirtyCacheNodes = DefaultDirtyCacheNodes
	}
	return &CachedTree{
		store: newStore(cfg),
		cap:   cfg.DirtyCacheNodes,
		dirty: make(map[uint64]Hash, cfg.DirtyCacheNodes),
	}
}

// SetBus attaches the observability event bus (nil disables).
func (t *CachedTree) SetBus(b *obs.Bus) { t.bus = b }

// Update absorbs page p's changed counter block into the dirty cache:
// one leaf hash now, ancestor recomputation deferred. A full cache
// forces a coalescing propagation first, so the pending set stays within
// the modeled on-chip SRAM budget.
func (t *CachedTree) Update(p addr.PageNum, block [ctr.CounterBlockSize]byte) clock.Cycles {
	t.updates.Inc()
	t.bus.Emit(obs.EvMerkleUpdate, uint64(p.Addr()), 1)
	idx := uint64(p)
	if _, pending := t.dirty[idx]; !pending && len(t.dirty) >= t.cap {
		t.PersistBarrier()
	}
	t.dirty[idx] = sha256.Sum256(block[:])
	t.hashOps.Inc()
	return t.cfg.HashLatency
}

// Verify checks block against the engine's authenticated state. A leaf
// with a pending update is authenticated directly against the on-chip
// dirty cache — one hash, no tree walk (the short-circuit at the first
// cached node). Otherwise the walk climbs the Bonsai path exactly like
// the eager engine.
func (t *CachedTree) Verify(p addr.PageNum, block [ctr.CounterBlockSize]byte) (bool, clock.Cycles) {
	t.verifies.Inc()
	idx := uint64(p)
	h := sha256.Sum256(block[:])
	if want, ok := t.dirty[idx]; ok {
		t.verifyHits.Inc()
		t.bus.Emit(obs.EvMerkleVerify, uint64(p.Addr()), 1)
		t.hashOps.Inc()
		return h == want, t.cfg.HashLatency
	}
	path := t.cfg.verifyPath()
	t.bus.Emit(obs.EvMerkleVerify, uint64(p.Addr()), uint64(path))
	levels := path - 1
	h = t.walkUp(idx, h, levels)
	t.hashOps.Add(uint64(path))
	return h == t.node(levels, idx>>uint(levels)), t.cfg.verifyCost()
}

// ConsistentWith reports whether block matches the engine's current
// authenticated state for page p — the pending dirty entry if one
// exists, the full path against the root register otherwise. Statistics-
// neutral, like the eager engine's.
func (t *CachedTree) ConsistentWith(p addr.PageNum, block [ctr.CounterBlockSize]byte) bool {
	idx := uint64(p)
	h := sha256.Sum256(block[:])
	if want, ok := t.dirty[idx]; ok {
		return h == want
	}
	return t.walkUp(idx, h, t.cfg.Depth) == t.Root()
}

// Authenticate is ConsistentWith with a typed *ReplayError on mismatch.
func (t *CachedTree) Authenticate(p addr.PageNum, block [ctr.CounterBlockSize]byte) error {
	return authenticate(t, p, block)
}

// Persisted propagates page p's pending update, if any: the counter
// cache wrote p's block to the persistence domain, so the root register
// must cover it before the write is considered durable.
func (t *CachedTree) Persisted(p addr.PageNum) {
	idx := uint64(p)
	if h, ok := t.dirty[idx]; ok {
		delete(t.dirty, idx)
		t.install(idx, h)
		t.propagate()
	}
}

// PersistBarrier propagates every pending update as one coalesced batch.
// The controller runs it at machine-wide persist points — mc.Flush and
// crash cuts — before the counter cache's own flush, so the per-page
// writebacks that follow find nothing pending.
func (t *CachedTree) PersistBarrier() {
	if len(t.dirty) == 0 {
		return
	}
	for idx, h := range t.dirty {
		t.install(idx, h)
	}
	clear(t.dirty)
	t.propagate()
}

// propagate settles the leaves just installed from the dirty cache as one
// batch (shared parents hashed once), charging the nodes per level.
func (t *CachedTree) propagate() {
	t.barriers.Inc()
	t.settle(func(level int, nodes uint64) {
		t.hashOps.Add(nodes)
		t.flushHashes.Add(nodes)
		t.bus.Emit(obs.EvMerkleFlush, uint64(level), nodes)
	})
}

// VerifyCost returns the modeled latency of one (non-short-circuited)
// verification.
func (t *CachedTree) VerifyCost() clock.Cycles { return t.cfg.verifyCost() }

// HashOps returns the number of hash-unit operations performed.
func (t *CachedTree) HashOps() uint64 { return t.hashOps.Value() }

// ResetStats clears the engine's statistics.
func (t *CachedTree) ResetStats() {
	t.updates.Reset()
	t.verifies.Reset()
	t.hashOps.Reset()
	t.verifyHits.Reset()
	t.barriers.Reset()
	t.flushHashes.Reset()
}

// StatsSet exposes integrity-engine statistics.
func (t *CachedTree) StatsSet() *stats.Set {
	s := stats.NewSet("merkle")
	s.RegisterCounter("updates", &t.updates)
	s.RegisterCounter("verifies", &t.verifies)
	s.RegisterCounter("hash_ops", &t.hashOps)
	s.RegisterCounter("verify_hits", &t.verifyHits)
	s.RegisterCounter("flushes", &t.barriers)
	s.RegisterCounter("flush_hashes", &t.flushHashes)
	return s
}
