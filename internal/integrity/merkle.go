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
// Two engines implement the Engine interface (engine.go): the eager Tree
// below, which models a full leaf-to-root rehash on every counter
// update, and the lazy CachedTree (cached.go), which coalesces pending
// leaf updates in an on-chip dirty-subtree cache and batch-propagates
// them at persist barriers.
package integrity

import (
	"crypto/sha256"
	"slices"

	"silentshredder/internal/addr"
	"silentshredder/internal/clock"
	"silentshredder/internal/ctr"
	"silentshredder/internal/obs"
	"silentshredder/internal/stats"
)

// Hash is a SHA-256 digest.
type Hash [sha256.Size]byte

// Config describes the tree.
type Config struct {
	Depth        int          // levels below the root; covers 2^Depth pages
	CachedLevels int          // top levels resident on chip (verification stops there)
	HashLatency  clock.Cycles // latency of one hash unit

	// Engine selects the update strategy: EngineEager (the zero value)
	// rehashes the full path on every counter update; EngineCached defers
	// and coalesces updates in a dirty-subtree cache (cached.go).
	Engine EngineKind
	// DirtyCacheNodes bounds the cached engine's dirty-subtree cache: the
	// maximum number of pending leaf entries held on chip before a forced
	// coalescing propagation (0 = DefaultDirtyCacheNodes). Ignored by the
	// eager engine.
	DirtyCacheNodes int
}

// DefaultConfig covers 2^24 pages (64GB of 4KB pages) with the top 10
// levels cached and a 40-cycle hash unit.
func DefaultConfig() Config {
	return Config{Depth: 24, CachedLevels: 10, HashLatency: 40}
}

// verifyPath is the Bonsai verification path length in hash units: the
// leaf hash plus one pair-hash per level until the first on-chip-cached
// node. Both engines and the modeled latency share this one clamp.
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

// store is the durable node state shared by both engines: the sparse
// per-level node maps, the empty-subtree defaults, and the root register.
type store struct {
	cfg      Config
	defaults []Hash            // defaults[l] = hash of an empty subtree of height l
	nodes    []map[uint64]Hash // nodes[l][i]: level l (0 = leaves), index i
	root     Hash

	stale  map[uint64]struct{} // installed leaves whose ancestors and root are out of date
	leaves []uint64            // settle's sort buffer, reused across calls
}

// newStore validates cfg and builds an empty node store.
func newStore(cfg Config) store {
	if cfg.Depth <= 0 || cfg.Depth > 40 {
		panic("integrity: depth out of range")
	}
	if cfg.CachedLevels < 0 || cfg.CachedLevels > cfg.Depth {
		cfg.CachedLevels = cfg.Depth
	}
	s := store{cfg: cfg, stale: make(map[uint64]struct{})}
	s.defaults = make([]Hash, cfg.Depth+1)
	var zero [ctr.CounterBlockSize]byte
	s.defaults[0] = sha256.Sum256(zero[:])
	for l := 1; l <= cfg.Depth; l++ {
		s.defaults[l] = hashPair(s.defaults[l-1], s.defaults[l-1])
	}
	s.nodes = make([]map[uint64]Hash, cfg.Depth+1)
	for l := range s.nodes {
		s.nodes[l] = make(map[uint64]Hash)
	}
	s.root = s.defaults[cfg.Depth]
	return s
}

func hashPair(a, b Hash) Hash {
	var buf [2 * sha256.Size]byte
	copy(buf[:sha256.Size], a[:])
	copy(buf[sha256.Size:], b[:])
	return sha256.Sum256(buf[:])
}

func (s *store) node(level int, idx uint64) Hash {
	if h, ok := s.nodes[level][idx]; ok {
		return h
	}
	return s.defaults[level]
}

// install writes leaf idx's hash and defers its ancestor rehash to the
// next settle.
func (s *store) install(idx uint64, h Hash) {
	s.nodes[0][idx] = h
	s.stale[idx] = struct{}{}
}

// settle rehashes the ancestors of every stale leaf and refreshes the
// root: the one rehash loop both engines share. Sorted leaves keep the
// climbing frontier deduplicated, so a shared ancestor is hashed once.
// charge, if non-nil, gets each level's rehashed-node count; settle
// itself touches no statistic and emits no event.
func (s *store) settle(charge func(level int, nodes uint64)) {
	if len(s.stale) == 0 {
		return
	}
	s.leaves = s.leaves[:0]
	for idx := range s.stale {
		s.leaves = append(s.leaves, idx)
	}
	clear(s.stale)
	slices.Sort(s.leaves)
	frontier := s.leaves
	for l := 0; l < s.cfg.Depth; l++ {
		next := frontier[:0]
		var last uint64
		for i, idx := range frontier {
			parent := idx >> 1
			if i > 0 && parent == last {
				continue
			}
			last = parent
			s.nodes[l+1][parent] = hashPair(s.node(l, parent<<1), s.node(l, parent<<1|1))
			next = append(next, parent)
		}
		frontier = next
		if charge != nil {
			charge(l+1, uint64(len(frontier)))
		}
	}
	s.root = s.nodes[s.cfg.Depth][0]
}

// walkUp hashes from the level-0 leaf hash h at index idx up `levels`
// levels, combining with the stored sibling at each step, and returns
// the hash reached at the final level. It settles first, so the siblings
// it reads are current: the one walk every verification and audit shares.
func (s *store) walkUp(idx uint64, h Hash, levels int) Hash {
	s.settle(nil)
	for l := 0; l < levels; l++ {
		sib := s.node(l, idx^1)
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
func (s *store) Root() Hash { s.settle(nil); return s.root }

// Tree is the eager engine: a sparse Merkle tree over counter blocks
// whose every update is charged a full leaf-to-root rehash. The host
// defers that rehash until the next Root, Verify, ConsistentWith,
// Authenticate or PersistBarrier settles all stale leaves at once.
type Tree struct {
	store

	updates, verifies stats.Counter
	hashOps           stats.Counter

	bus *obs.Bus // nil unless observability is enabled
}

// SetBus attaches the observability event bus (nil disables).
func (t *Tree) SetBus(b *obs.Bus) { t.bus = b }

// NewTree creates an empty eager tree.
func NewTree(cfg Config) *Tree {
	return &Tree{store: newStore(cfg)}
}

// Update absorbs page p's changed counter block, returning the modeled
// latency of hashing the full path to the root (cached levels still need
// their cached copies refreshed, which the model folds into the same
// hash cost). The host hashes only the leaf; see settle.
func (t *Tree) Update(p addr.PageNum, block [ctr.CounterBlockSize]byte) clock.Cycles {
	t.updates.Inc()
	t.bus.Emit(obs.EvMerkleUpdate, uint64(p.Addr()), uint64(t.cfg.Depth+1))
	t.install(uint64(p), sha256.Sum256(block[:]))
	t.hashOps.Add(uint64(t.cfg.Depth + 1))
	return clock.Cycles(t.cfg.Depth+1) * t.cfg.HashLatency
}

// Verify checks that block is the authentic counter block for page p,
// returning whether it verifies and the modeled latency. Verification
// hashes from the leaf up to the first on-chip-cached level and compares
// against the cached copy there (the Bonsai optimization), so its cost —
// modeled latency, emitted path length and hash_ops alike — is
// (Depth - CachedLevels + 1) hashes.
func (t *Tree) Verify(p addr.PageNum, block [ctr.CounterBlockSize]byte) (bool, clock.Cycles) {
	t.verifies.Inc()
	path := t.cfg.verifyPath()
	t.bus.Emit(obs.EvMerkleVerify, uint64(p.Addr()), uint64(path))
	idx := uint64(p)
	h := sha256.Sum256(block[:])
	levels := path - 1
	h = t.walkUp(idx, h, levels)
	t.hashOps.Add(uint64(path))
	return h == t.node(levels, idx>>uint(levels)), t.cfg.verifyCost()
}

// ConsistentWith reports whether block hashes to the current root as page
// p's counter block — the full-path computation against the root
// register, without touching statistics or modeling latency. Invariant
// sweeps and the reboot-time audit use it so that enabling them cannot
// perturb the measured verification counts.
func (t *Tree) ConsistentWith(p addr.PageNum, block [ctr.CounterBlockSize]byte) bool {
	h := sha256.Sum256(block[:])
	return t.walkUp(uint64(p), h, t.cfg.Depth) == t.Root()
}

// Persisted is the eager engine's persist-ordering hook: a no-op, since
// the model charged every update's path to the root synchronously.
func (t *Tree) Persisted(addr.PageNum) {}

// PersistBarrier settles the host-side deferred rehash, so a flushed or
// crashed machine holds a current root; nothing is pending in the model.
func (t *Tree) PersistBarrier() { t.settle(nil) }

// VerifyCost returns the modeled latency of one verification.
func (t *Tree) VerifyCost() clock.Cycles { return t.cfg.verifyCost() }

// HashOps returns the number of hash-unit operations performed.
func (t *Tree) HashOps() uint64 { return t.hashOps.Value() }

// ResetStats clears the engine's statistics.
func (t *Tree) ResetStats() {
	t.updates.Reset()
	t.verifies.Reset()
	t.hashOps.Reset()
}

// StatsSet exposes integrity-engine statistics.
func (t *Tree) StatsSet() *stats.Set {
	s := stats.NewSet("merkle")
	s.RegisterCounter("updates", &t.updates)
	s.RegisterCounter("verifies", &t.verifies)
	s.RegisterCounter("hash_ops", &t.hashOps)
	return s
}
