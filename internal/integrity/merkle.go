// Package integrity implements a Bonsai-style Merkle tree over the
// encryption counter region (paper §2.2/§7.1).
//
// Counter-mode security requires that counters cannot be replayed or
// tampered with: an attacker who can roll a minor counter back would force
// pad reuse. The paper (following Rogers et al.) protects the counters with
// a Merkle tree whose hot upper levels stay cached on chip — the "Bonsai"
// optimization — so a counter verification only hashes the short path from
// the leaf up to the first cached node, costing ~2% overhead.
//
// The tree here is a sparse binary Merkle tree over pages: leaf i covers
// page i's 64-byte encoded counter block. Missing subtrees hash to
// precomputed "empty" defaults, so memory use is proportional to the
// touched page set.
//
// One Tree models both update schemes, selected by
// Config.DirtyCacheNodes. At 0 it is the classic eager tree: every
// counter update is charged a full leaf-to-root rehash. Above 0 it is
// the lazy scheme of Streamlining Integrity Tree Updates (PAPERS.md):
// pending leaf updates wait in an on-chip dirty-subtree cache of that
// many leaves and are batch-propagated at persist barriers.
package integrity

import (
	"crypto/sha256"
	"fmt"
	"slices"

	"silentshredder/internal/addr"
	"silentshredder/internal/clock"
	"silentshredder/internal/ctr"
	"silentshredder/internal/obs"
	"silentshredder/internal/stats"
)

// Hash is a SHA-256 digest.
type Hash [sha256.Size]byte

// DefaultDirtyCacheNodes is the dirty-subtree cache capacity of the
// "cached" engine: 1024 pending leaves is 32KB of on-chip hash state, in
// line with the Bonsai cached-levels SRAM budget.
const DefaultDirtyCacheNodes = 1024

// Config describes the tree.
type Config struct {
	Depth        int          // levels below the root; covers 2^Depth pages
	CachedLevels int          // top levels resident on chip (verification stops there)
	HashLatency  clock.Cycles // latency of one hash unit

	// DirtyCacheNodes is the dirty-subtree cache capacity in pending
	// leaves. 0 (the zero value) is the eager tree, which rehashes the
	// full path on every counter update; a positive value defers and
	// coalesces updates, forcing a propagation when the cache is full.
	// Negative values make New panic.
	DirtyCacheNodes int
}

// DefaultConfig covers 2^24 pages (64GB of 4KB pages) with the top 10
// levels cached and a 40-cycle hash unit: the eager tree.
func DefaultConfig() Config {
	return Config{Depth: 24, CachedLevels: 10, HashLatency: 40}
}

// ParseEngine maps an -integrity-engine spelling to a dirty-cache
// capacity: "eager" is 0 and "cached" is DefaultDirtyCacheNodes.
func ParseEngine(s string) (int, error) {
	switch s {
	case "eager":
		return 0, nil
	case "cached":
		return DefaultDirtyCacheNodes, nil
	}
	return 0, fmt.Errorf("integrity: unknown engine %q (want eager or cached)", s)
}

// EngineName is the -integrity-engine spelling of a dirty-cache
// capacity: "eager" for 0, "cached" for any positive capacity.
func EngineName(dirtyCacheNodes int) string {
	if dirtyCacheNodes == 0 {
		return "eager"
	}
	return "cached"
}

// verifyPath is the Bonsai verification path length in hash units: the
// leaf hash plus one pair-hash per level until the first on-chip-cached
// node. The verification walk and the modeled latency share this clamp.
func (c Config) verifyPath() int {
	path := c.Depth - c.CachedLevels + 1
	if path < 1 {
		path = 1
	}
	return path
}

// verifyCost is the modeled latency of one Bonsai verification.
func (c Config) verifyCost() clock.Cycles {
	return clock.Cycles(c.verifyPath()) * c.HashLatency
}

// Tree is a sparse Merkle tree over counter blocks with an optional
// dirty-subtree cache in front of it.
//
// The eager tree (no dirty cache) charges every update a full
// leaf-to-root rehash. The host defers that rehash until the next Root,
// Verify, ConsistentWith, Authenticate or PersistBarrier settles all
// stale leaves at once, where it changes no statistic and no event.
//
// The lazy tree parks each update's leaf hash in the dirty cache and
// recomputes the ancestor path later: per page when that page's counters
// are written back to the persistence domain (Persisted), or as one
// coalesced batch at persist barriers (mc.Flush, crash cuts). Writes
// that hit the same counter block repeatedly — the common case, since a
// 64B counter block covers a page's 64 cache lines — collapse into one
// deferred path update, and a barrier over many dirty leaves shares
// every common ancestor rehash instead of repeating it per leaf.
//
// Crash-persist ordering: the dirty cache is modeled as on-chip SRAM in
// the same ADR/persist domain as the root register, so a power cut
// drains it (the controller calls PersistBarrier before the counter
// cache's own crash handling). After any barrier the root register is
// bit-identical to the eager tree's over the same update history, which
// is what makes the reboot-time replay audit detect stale counters at
// exactly the same points.
type Tree struct {
	cfg      Config
	defaults []Hash            // defaults[l] = hash of an empty subtree of height l
	nodes    []map[uint64]Hash // nodes[l][i]: level l (0 = leaves), index i
	root     Hash

	stale  map[uint64]struct{} // installed leaves whose ancestors and root are out of date
	leaves []uint64            // settle's sort buffer, reused across calls

	// dirty holds the pending leaf hashes not yet propagated; nil for
	// the eager tree, so every lookup in it misses.
	dirty map[uint64]Hash

	updates, verifies stats.Counter
	hashOps           stats.Counter
	verifyHits        stats.Counter // verifies satisfied by the dirty cache
	barriers          stats.Counter // propagation batches (per-page + barrier)
	flushHashes       stats.Counter // hash ops spent in propagation

	bus *obs.Bus // nil unless observability is enabled
}

// New validates cfg and creates an empty tree. It panics on an
// out-of-range depth or a negative dirty-cache capacity, since the tree
// geometry is static configuration.
func New(cfg Config) *Tree {
	if cfg.Depth <= 0 || cfg.Depth > 40 {
		panic("integrity: depth out of range")
	}
	if cfg.DirtyCacheNodes < 0 {
		panic("integrity: negative dirty-cache capacity")
	}
	if cfg.CachedLevels < 0 || cfg.CachedLevels > cfg.Depth {
		cfg.CachedLevels = cfg.Depth
	}
	t := &Tree{cfg: cfg, stale: make(map[uint64]struct{})}
	if cfg.DirtyCacheNodes > 0 {
		t.dirty = make(map[uint64]Hash, cfg.DirtyCacheNodes)
	}
	t.defaults = make([]Hash, cfg.Depth+1)
	var zero [ctr.CounterBlockSize]byte
	t.defaults[0] = sha256.Sum256(zero[:])
	for l := 1; l <= cfg.Depth; l++ {
		t.defaults[l] = hashPair(t.defaults[l-1], t.defaults[l-1])
	}
	t.nodes = make([]map[uint64]Hash, cfg.Depth+1)
	for l := range t.nodes {
		t.nodes[l] = make(map[uint64]Hash)
	}
	t.root = t.defaults[cfg.Depth]
	return t
}

func hashPair(a, b Hash) Hash {
	var buf [2 * sha256.Size]byte
	copy(buf[:sha256.Size], a[:])
	copy(buf[sha256.Size:], b[:])
	return sha256.Sum256(buf[:])
}

// SetBus attaches the observability event bus (nil disables).
func (t *Tree) SetBus(b *obs.Bus) { t.bus = b }

func (t *Tree) node(level int, idx uint64) Hash {
	if h, ok := t.nodes[level][idx]; ok {
		return h
	}
	return t.defaults[level]
}

// install writes leaf idx's hash and defers its ancestor rehash to the
// next settle.
func (t *Tree) install(idx uint64, h Hash) {
	t.nodes[0][idx] = h
	t.stale[idx] = struct{}{}
}

// settle rehashes the ancestors of every stale leaf and refreshes the
// root: the one rehash loop of both schemes. Sorted leaves keep the
// climbing frontier deduplicated, so a shared ancestor is hashed once.
// charge, if non-nil, gets each level's rehashed-node count; settle
// itself touches no statistic and emits no event.
func (t *Tree) settle(charge func(level int, nodes uint64)) {
	if len(t.stale) == 0 {
		return
	}
	t.leaves = t.leaves[:0]
	for idx := range t.stale {
		t.leaves = append(t.leaves, idx)
	}
	clear(t.stale)
	slices.Sort(t.leaves)
	frontier := t.leaves
	for l := 0; l < t.cfg.Depth; l++ {
		next := frontier[:0]
		var last uint64
		for i, idx := range frontier {
			parent := idx >> 1
			if i > 0 && parent == last {
				continue
			}
			last = parent
			t.nodes[l+1][parent] = hashPair(t.node(l, parent<<1), t.node(l, parent<<1|1))
			next = append(next, parent)
		}
		frontier = next
		if charge != nil {
			charge(l+1, uint64(len(frontier)))
		}
	}
	t.root = t.nodes[t.cfg.Depth][0]
}

// walkUp hashes from the level-0 leaf hash h at index idx up `levels`
// levels, combining with the stored sibling at each step, and returns
// the hash reached at the final level. It settles first, so the siblings
// it reads are current: the one walk every verification and audit shares.
func (t *Tree) walkUp(idx uint64, h Hash, levels int) Hash {
	t.settle(nil)
	for l := 0; l < levels; l++ {
		sib := t.node(l, idx^1)
		if idx&1 == 0 {
			h = hashPair(h, sib)
		} else {
			h = hashPair(sib, h)
		}
		idx >>= 1
	}
	return h
}

// Root returns the current root hash (held in a tamper-proof on-chip
// register in the real design), settling any stale leaves first.
func (t *Tree) Root() Hash { t.settle(nil); return t.root }

// Update absorbs page p's changed counter block and returns the modeled
// latency charged to the write. The eager tree charges the full path to
// the root (cached levels still need their cached copies refreshed,
// which the model folds into the same hash cost) and hashes only the
// leaf on the host; see settle. The lazy tree charges one leaf hash and
// parks it in the dirty cache. A full cache forces a coalescing
// propagation first, so the pending set stays within the modeled
// on-chip SRAM budget.
func (t *Tree) Update(p addr.PageNum, block [ctr.CounterBlockSize]byte) clock.Cycles {
	t.updates.Inc()
	idx := uint64(p)
	h := sha256.Sum256(block[:])
	path := 1
	if t.dirty == nil {
		path = t.cfg.Depth + 1
	}
	t.bus.Emit(obs.EvMerkleUpdate, uint64(p.Addr()), uint64(path))
	if t.dirty == nil {
		t.install(idx, h)
	} else {
		if _, pending := t.dirty[idx]; !pending && len(t.dirty) >= t.cfg.DirtyCacheNodes {
			t.PersistBarrier()
		}
		t.dirty[idx] = h
	}
	t.hashOps.Add(uint64(path))
	return clock.Cycles(path) * t.cfg.HashLatency
}

// Verify checks that block is the authentic counter block for page p,
// returning whether it verifies and the modeled latency. A leaf with a
// pending update is authenticated directly against the dirty cache: one
// hash, no tree walk (the short-circuit at the first cached node).
// Otherwise verification hashes from the leaf up to the first
// on-chip-cached level and compares against the cached copy there (the
// Bonsai optimization), so its cost — modeled latency, emitted path
// length and hash_ops alike — is (Depth - CachedLevels + 1) hashes.
func (t *Tree) Verify(p addr.PageNum, block [ctr.CounterBlockSize]byte) (bool, clock.Cycles) {
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

// ConsistentWith reports whether block matches the tree's current
// authenticated state for page p — the pending dirty entry if one
// exists, the full path against the root register otherwise — without
// touching statistics or modeling latency. Invariant sweeps and the
// reboot-time audit use it so that enabling them cannot perturb the
// measured verification counts.
func (t *Tree) ConsistentWith(p addr.PageNum, block [ctr.CounterBlockSize]byte) bool {
	idx := uint64(p)
	h := sha256.Sum256(block[:])
	if want, ok := t.dirty[idx]; ok {
		return h == want
	}
	return t.walkUp(idx, h, t.cfg.Depth) == t.Root()
}

// Authenticate is ConsistentWith with a typed *ReplayError on mismatch,
// for the reboot-time counter audit. Like ConsistentWith it is
// statistics-neutral.
func (t *Tree) Authenticate(p addr.PageNum, block [ctr.CounterBlockSize]byte) error {
	if t.ConsistentWith(p, block) {
		return nil
	}
	return &ReplayError{Page: p, Major: ctr.DecodeCounterBlock(block).Major}
}

// Persisted notes that page p's counter block reached the persistence
// domain (a counter-cache writeback), so the root register must cover
// any pending update for it before the write is considered durable. The
// eager tree has nothing pending: the model charged every update's path
// to the root synchronously.
func (t *Tree) Persisted(p addr.PageNum) {
	idx := uint64(p)
	if h, ok := t.dirty[idx]; ok {
		delete(t.dirty, idx)
		t.install(idx, h)
		t.propagate()
	}
}

// PersistBarrier makes the root register cover every pending update, as
// one coalesced batch. The controller runs it at machine-wide persist
// points — mc.Flush and crash cuts — before the counter cache's own
// flush, so the per-page writebacks that follow find nothing pending.
// With nothing pending it only settles the host-side deferred rehash, so
// a flushed or crashed machine holds a current root.
func (t *Tree) PersistBarrier() {
	if len(t.dirty) == 0 {
		t.settle(nil)
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
func (t *Tree) propagate() {
	t.barriers.Inc()
	t.settle(func(level int, nodes uint64) {
		t.hashOps.Add(nodes)
		t.flushHashes.Add(nodes)
		t.bus.Emit(obs.EvMerkleFlush, uint64(level), nodes)
	})
}

// HashOps returns the number of hash-unit operations performed.
func (t *Tree) HashOps() uint64 { return t.hashOps.Value() }

// ResetStats clears the tree's statistics, never its authenticated state.
func (t *Tree) ResetStats() {
	t.updates.Reset()
	t.verifies.Reset()
	t.hashOps.Reset()
	t.verifyHits.Reset()
	t.barriers.Reset()
	t.flushHashes.Reset()
}

// StatsSet exposes the tree's statistics as the "merkle" set. The
// dirty-cache counters are registered only when the tree has a dirty
// cache, so the eager tree's stat dump keeps its three entries.
func (t *Tree) StatsSet() *stats.Set {
	s := stats.NewSet("merkle")
	s.RegisterCounter("updates", &t.updates)
	s.RegisterCounter("verifies", &t.verifies)
	s.RegisterCounter("hash_ops", &t.hashOps)
	if t.dirty != nil {
		s.RegisterCounter("verify_hits", &t.verifyHits)
		s.RegisterCounter("flushes", &t.barriers)
		s.RegisterCounter("flush_hashes", &t.flushHashes)
	}
	return s
}
