package integrity

import (
	"crypto/sha256"
	"errors"
	"math/rand"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/clock"
	"silentshredder/internal/ctr"
	"silentshredder/internal/obs"
)

// referenceRoot computes the sparse Merkle root of a page → counter-block
// map from scratch, level by level and independently of the store: an
// absent leaf hashes the all-zero counter block and an absent subtree
// hashes as two absent children.
func referenceRoot(depth int, blocks map[addr.PageNum][ctr.CounterBlockSize]byte) Hash {
	pair := func(a, b Hash) Hash { return sha256.Sum256(append(a[:], b[:]...)) }
	var zero [ctr.CounterBlockSize]byte
	empty := Hash(sha256.Sum256(zero[:]))
	level := make(map[uint64]Hash, len(blocks))
	for p, blk := range blocks {
		level[uint64(p)] = sha256.Sum256(blk[:])
	}
	for l := 0; l < depth; l++ {
		get := func(idx uint64) Hash {
			if h, ok := level[idx]; ok {
				return h
			}
			return empty
		}
		up := make(map[uint64]Hash, len(level))
		for idx := range level {
			parent := idx >> 1
			up[parent] = pair(get(parent<<1), get(parent<<1|1))
		}
		level = up
		empty = pair(empty, empty)
	}
	if root, ok := level[0]; ok {
		return root
	}
	return empty
}

// The eager engine's host rehash is deferred to observations, so every
// observation kind must see exactly the state an undeferred tree would
// hold, and the settle behind it must be invisible to the model: the
// counters and the event stream move only by the observing call's own
// charge, and hash_ops stays the eager formula.
func TestEagerLazySettleEquivalence(t *testing.T) {
	cfg := smallConfig()
	tr := NewTree(cfg)
	bus := obs.NewBus(obs.Config{})
	tr.SetBus(bus)
	rng := rand.New(rand.NewSource(20261017))
	current := map[addr.PageNum][ctr.CounterBlockSize]byte{}
	updateCost := clock.Cycles(cfg.Depth+1) * cfg.HashLatency
	var updates, verifies, pendingObs uint64

	type snap struct{ updates, verifies, hashOps, events uint64 }
	take := func() snap {
		return snap{tr.updates.Value(), tr.verifies.Value(), tr.HashOps(), bus.Seq()}
	}
	for step := 0; step < 3000; step++ {
		p := addr.PageNum(rng.Intn(96))
		op := rng.Intn(9)
		if op < 3 {
			blk := blockWith(byte(rng.Intn(255) + 1))
			current[p] = blk
			if lat := tr.Update(p, blk); lat != updateCost {
				t.Fatalf("step %d: update latency %d, want %d", step, lat, updateCost)
			}
			updates++
			continue
		}

		probe := current[p]
		if rng.Intn(2) == 0 {
			probe[rng.Intn(len(probe))] ^= byte(rng.Intn(255) + 1)
		}
		// The reference verdict: authentic iff probe is the page's current
		// block (the all-zero block for a page never written).
		want := probe == current[p]
		if len(tr.stale) > 0 {
			pendingObs++
		}
		before, charge := take(), snap{}
		switch op {
		case 3, 4:
			ok, lat := tr.Verify(p, probe)
			if ok != want || lat != tr.VerifyCost() {
				t.Fatalf("step %d: Verify(%v) = %v, %d; want %v, %d", step, p, ok, lat, want, tr.VerifyCost())
			}
			verifies++
			charge = snap{verifies: 1, hashOps: uint64(cfg.verifyPath()), events: 1}
		case 5:
			if got := tr.ConsistentWith(p, probe); got != want {
				t.Fatalf("step %d: ConsistentWith(%v) = %v, want %v", step, p, got, want)
			}
		case 6:
			err := tr.Authenticate(p, probe)
			var re *ReplayError
			if (err == nil) != want || (err != nil && (!errors.As(err, &re) || re.Page != p)) {
				t.Fatalf("step %d: Authenticate(%v) = %v, want authentic=%v", step, p, err, want)
			}
		case 7:
			tr.Root()
		case 8:
			tr.PersistBarrier()
		}
		if got := take(); got != (snap{
			before.updates + charge.updates, before.verifies + charge.verifies,
			before.hashOps + charge.hashOps, before.events + charge.events,
		}) {
			t.Fatalf("step %d (op %d): counters/events moved beyond the call's own charge: before %+v, after %+v, charge %+v",
				step, op, before, got, charge)
		}
		if len(tr.stale) != 0 {
			t.Fatalf("step %d (op %d): observation left %d stale leaves", step, op, len(tr.stale))
		}
		if tr.Root() != referenceRoot(cfg.Depth, current) {
			t.Fatalf("step %d (op %d): root differs from the reference", step, op)
		}
		if want := updates*uint64(cfg.Depth+1) + verifies*uint64(cfg.verifyPath()); tr.HashOps() != want {
			t.Fatalf("step %d: hash_ops = %d, want updates·(Depth+1) + verifies·verifyPath = %d", step, tr.HashOps(), want)
		}
	}
	if pendingObs < 500 {
		t.Fatalf("only %d observations found stale leaves to settle; the test is not exercising the deferral", pendingObs)
	}
}

// The hot paths and the shared settle must not allocate once the touched
// pages exist: the stale set, the dirty cache and the sort buffer keep
// their capacity across settles.
func TestSteadyStateZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	pages := []addr.PageNum{3, 900, 901, 1 << 20}
	blk := blockWith(2)

	eager := NewTree(cfg)
	for _, p := range pages {
		eager.Update(p, blockWith(1))
	}
	eager.Root()
	if n := testing.AllocsPerRun(100, func() { eager.Update(900, blk) }); n != 0 {
		t.Errorf("eager Update on a touched page allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, p := range pages {
			eager.Update(p, blk)
		}
		eager.Root()
	}); n != 0 {
		t.Errorf("warm eager settle allocates %v per run, want 0", n)
	}

	cfg.Engine = EngineCached
	cached := NewCachedTree(cfg)
	for _, p := range pages {
		cached.Update(p, blockWith(1))
	}
	cached.PersistBarrier()
	if n := testing.AllocsPerRun(100, func() {
		for _, p := range pages {
			cached.Update(p, blk)
		}
		cached.PersistBarrier()
	}); n != 0 {
		t.Errorf("CachedTree.PersistBarrier allocates %v per run, want 0", n)
	}
}
