package integrity

import (
	"math/rand"
	"reflect"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/clock"
	"silentshredder/internal/obs"
	"silentshredder/internal/stats"
)

func smallConfig() Config {
	return Config{Depth: 8, CachedLevels: 3, HashLatency: 40}
}

// withCapacity returns cfg with the given dirty-cache capacity.
func withCapacity(cfg Config, dirtyCacheNodes int) Config {
	cfg.DirtyCacheNodes = dirtyCacheNodes
	return cfg
}

// engines builds the two trees the CLIs can select, keyed by spelling.
func engines(t *testing.T, cfg Config) map[string]*Tree {
	t.Helper()
	return map[string]*Tree{
		"eager":  New(withCapacity(cfg, 0)),
		"cached": New(withCapacity(cfg, DefaultDirtyCacheNodes)),
	}
}

// The two -integrity-engine spellings map to capacities 0 and
// DefaultDirtyCacheNodes and back; anything else is an error.
func TestParseEngine(t *testing.T) {
	for name, want := range map[string]int{"eager": 0, "cached": DefaultDirtyCacheNodes} {
		got, err := ParseEngine(name)
		if err != nil || got != want {
			t.Fatalf("ParseEngine(%q) = %d, %v; want %d", name, got, err, want)
		}
		if back := EngineName(got); back != name {
			t.Fatalf("EngineName(%d) = %q, want %q", got, back, name)
		}
	}
	if _, err := ParseEngine("nope"); err == nil {
		t.Fatal("want error for unknown engine name")
	}
}

// New's one knob: capacity 0 builds the eager tree (no dirty cache, an
// update charged the full path and announced as Depth+1 hashes), a
// positive capacity the lazy tree (an update charged one leaf hash), and
// a negative capacity panics.
func TestFactorySelectsEngine(t *testing.T) {
	cfg := smallConfig()
	for _, tc := range []struct {
		capacity int
		path     uint64
	}{{0, uint64(cfg.Depth + 1)}, {1, 1}, {DefaultDirtyCacheNodes, 1}} {
		tr := New(withCapacity(cfg, tc.capacity))
		if (tr.dirty == nil) != (tc.capacity == 0) {
			t.Fatalf("capacity %d: dirty cache present = %v", tc.capacity, tr.dirty != nil)
		}
		bus := obs.NewBus(obs.Config{})
		tr.SetBus(bus)
		if lat := tr.Update(5, blockWith(1)); lat != clock.Cycles(tc.path)*cfg.HashLatency {
			t.Fatalf("capacity %d: update latency %d, want %d hashes", tc.capacity, lat, tc.path)
		}
		evs := bus.Events()
		if len(evs) != 1 || evs[0].Kind != obs.EvMerkleUpdate || evs[0].Arg != tc.path {
			t.Fatalf("capacity %d: update events %+v, want one merkle_update with Arg %d", tc.capacity, evs, tc.path)
		}
		if tr.HashOps() != tc.path {
			t.Fatalf("capacity %d: hash_ops %d, want %d", tc.capacity, tr.HashOps(), tc.path)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for a negative dirty-cache capacity")
		}
	}()
	New(withCapacity(cfg, -1))
}

// The eager Verify stat must match the modeled Bonsai cost: the walk
// stops at the first cached level, so hash_ops advances by
// Depth-CachedLevels+1 per verification — not Depth+1 (the pre-engine
// overcount this PR fixes).
func TestVerifyHashOpsMatchBonsaiCost(t *testing.T) {
	tr := New(Config{Depth: 24, CachedLevels: 10, HashLatency: 40})
	tr.Update(7, blockWith(1))
	before := tr.HashOps()
	if ok, _ := tr.Verify(7, blockWith(1)); !ok {
		t.Fatal("leaf must verify")
	}
	if got := tr.HashOps() - before; got != 15 {
		t.Fatalf("verify hash_ops = %d, want Depth-CachedLevels+1 = 15", got)
	}
}

// Every engine behavior pair: same update history, a barrier on the
// cached side, then roots must be bit-identical and verification
// verdicts must agree on both fresh and stale blocks.
func TestEngineRootEquivalence(t *testing.T) {
	es := engines(t, smallConfig())
	eager, cached := es["eager"], es["cached"]
	rng := rand.New(rand.NewSource(9))
	blocks := map[addr.PageNum]byte{}
	for i := 0; i < 400; i++ {
		p := addr.PageNum(rng.Intn(64))
		v := byte(rng.Intn(255) + 1)
		blocks[p] = v
		eager.Update(p, blockWith(v))
		cached.Update(p, blockWith(v))
		if rng.Intn(16) == 0 {
			cached.PersistBarrier()
			if eager.Root() != cached.Root() {
				t.Fatalf("roots diverge after barrier at step %d", i)
			}
		}
	}
	cached.PersistBarrier()
	if eager.Root() != cached.Root() {
		t.Fatal("final roots diverge")
	}
	for p, v := range blocks {
		for name, e := range es {
			if ok, _ := e.Verify(p, blockWith(v)); !ok {
				t.Fatalf("%s: current block of page %d must verify", name, p)
			}
			if ok, _ := e.Verify(p, blockWith(v^0xFF)); ok {
				t.Fatalf("%s: forged block of page %d must not verify", name, p)
			}
			if err := e.Authenticate(p, blockWith(v)); err != nil {
				t.Fatalf("%s: authenticate: %v", name, err)
			}
			if err := e.Authenticate(p, blockWith(v^0xFF)); err == nil {
				t.Fatalf("%s: stale block must raise ReplayError", name)
			}
		}
	}
}

// Replay detection equivalence: after a shred-like counter rewrite, both
// engines must reject the pre-shred block the same way, including before
// any explicit barrier on the cached side (the dirty cache is
// authenticated state too).
func TestEngineReplayDetectionEquivalence(t *testing.T) {
	for name, e := range engines(t, smallConfig()) {
		p := addr.PageNum(9)
		e.Update(p, blockWith(6))
		e.Update(p, blockWith(7)) // the shred overwrites the counters
		err := e.Authenticate(p, blockWith(6))
		re, ok := err.(*ReplayError)
		if !ok {
			t.Fatalf("%s: got %v, want *ReplayError", name, err)
		}
		if re.Page != p {
			t.Fatalf("%s: ReplayError page = %v, want %v", name, re.Page, p)
		}
		if err := e.Authenticate(p, blockWith(7)); err != nil {
			t.Fatalf("%s: current block must authenticate: %v", name, err)
		}
	}
}

// Coalescing is the cached engine's point: many updates to few pages
// must cost far fewer hash ops than the eager engine pays, and the
// verify path must short-circuit at the dirty cache.
func TestCachedTreeCoalesces(t *testing.T) {
	cfg := smallConfig()
	eager := New(cfg)
	cached := New(withCapacity(cfg, DefaultDirtyCacheNodes))
	for i := 0; i < 64; i++ {
		p := addr.PageNum(i % 4)
		eager.Update(p, blockWith(byte(i+1)))
		cached.Update(p, blockWith(byte(i+1)))
	}
	// Dirty-cache verify: one hash, no tree walk.
	before := cached.HashOps()
	if ok, lat := cached.Verify(3, blockWith(64)); !ok || lat != cfg.HashLatency {
		t.Fatalf("dirty-hit verify: ok=%v lat=%d, want true, %d", ok, lat, cfg.HashLatency)
	}
	if got := cached.HashOps() - before; got != 1 {
		t.Fatalf("dirty-hit verify hash_ops = %d, want 1", got)
	}
	cached.PersistBarrier()
	if eager.Root() != cached.Root() {
		t.Fatal("roots diverge after coalesced barrier")
	}
	// 64 updates x 9 levels eagerly vs 64 leaf hashes + one 4-leaf batch.
	if cached.HashOps()*3 >= eager.HashOps() {
		t.Fatalf("coalescing too weak: cached %d vs eager %d hash ops",
			cached.HashOps(), eager.HashOps())
	}
}

// A second barrier with nothing pending must be free and keep the root.
func TestPersistBarrierIdempotent(t *testing.T) {
	cfg := withCapacity(smallConfig(), DefaultDirtyCacheNodes)
	cached := New(cfg)
	cached.Update(1, blockWith(1))
	cached.PersistBarrier()
	r := cached.Root()
	ops := cached.HashOps()
	cached.PersistBarrier()
	if cached.Root() != r || cached.HashOps() != ops {
		t.Fatal("empty barrier must be a no-op")
	}
}

// Persisted propagates exactly the named page: its block then verifies
// via the tree path, while other pages stay pending in the dirty cache.
func TestPersistedPropagatesSinglePage(t *testing.T) {
	cfg := withCapacity(smallConfig(), DefaultDirtyCacheNodes)
	cached := New(cfg)
	cached.Update(2, blockWith(2))
	cached.Update(40, blockWith(3))
	cached.Persisted(2)
	// Page 2 left the dirty cache: a verify now walks the Bonsai path.
	before := cached.HashOps()
	if ok, _ := cached.Verify(2, blockWith(2)); !ok {
		t.Fatal("persisted page must verify via the tree")
	}
	if got := cached.HashOps() - before; got != uint64(cfg.verifyPath()) {
		t.Fatalf("tree-path verify hash_ops = %d, want %d", got, cfg.verifyPath())
	}
	// Page 40 is still pending and still authenticated.
	if ok, _ := cached.Verify(40, blockWith(3)); !ok {
		t.Fatal("pending page must verify via the dirty cache")
	}
	// Persisted on a clean page is a no-op.
	ops := cached.HashOps()
	cached.Persisted(2)
	if cached.HashOps() != ops {
		t.Fatal("Persisted on a clean page must not hash")
	}
}

// The dirty cache is bounded: overflowing it forces a coalescing
// propagation instead of unbounded growth.
func TestDirtyCacheOverflowForcesBarrier(t *testing.T) {
	cfg := withCapacity(smallConfig(), 8)
	cached := New(cfg)
	bus := obs.NewBus(obs.Config{})
	cached.SetBus(bus)
	for i := 0; i < 32; i++ {
		n := len(bus.Events())
		cached.Update(addr.PageNum(i), blockWith(byte(i+1)))
		if len(cached.dirty) > cfg.DirtyCacheNodes {
			t.Fatalf("dirty cache grew to %d > cap %d", len(cached.dirty), cfg.DirtyCacheNodes)
		}
		// The first overflowing update is announced before the flush
		// events of the barrier it forces, one per level.
		if i == cfg.DirtyCacheNodes {
			evs := bus.Events()[n:]
			if len(evs) != 1+cfg.Depth || evs[0].Kind != obs.EvMerkleUpdate {
				t.Fatalf("overflowing update emitted %+v, want merkle_update then %d merkle_flush", evs, cfg.Depth)
			}
			for _, ev := range evs[1:] {
				if ev.Kind != obs.EvMerkleFlush {
					t.Fatalf("overflowing update emitted %+v, want merkle_update then %d merkle_flush", evs, cfg.Depth)
				}
			}
		}
	}
	// Re-dirtying an already-pending page must not force a flush.
	cached.PersistBarrier()
	cached.Update(0, blockWith(1))
	before := cached.flushHashes.Value()
	for i := 0; i < 100; i++ {
		cached.Update(0, blockWith(byte(i+1)))
	}
	if cached.flushHashes.Value() != before {
		t.Fatal("same-leaf re-dirtying must not trigger overflow flushes")
	}
}

// The cached engine's flush events must account for exactly its
// propagation hash ops, level by level.
func TestFlushEventsMatchFlushHashes(t *testing.T) {
	cfg := withCapacity(smallConfig(), DefaultDirtyCacheNodes)
	cached := New(cfg)
	bus := obs.NewBus(obs.Config{})
	cached.SetBus(bus)
	for i := 0; i < 10; i++ {
		cached.Update(addr.PageNum(i*3), blockWith(byte(i+1)))
	}
	cached.PersistBarrier()
	var fromEvents uint64
	for _, ev := range bus.Events() {
		if ev.Kind == obs.EvMerkleFlush {
			if ev.Addr < 1 || ev.Addr > uint64(cfg.Depth) {
				t.Fatalf("flush event level %d out of range", ev.Addr)
			}
			fromEvents += ev.Arg
		}
	}
	if fromEvents != cached.flushHashes.Value() {
		t.Fatalf("flush events account for %d hashes, counter says %d",
			fromEvents, cached.flushHashes.Value())
	}
}

// The stat set's shape is part of the digest contract: the eager tree
// registers exactly its three counters, so its dump and the benchmark
// digests do not change, and the lazy tree adds its three dirty-cache
// counters. ResetStats zeroes them all and keeps the authenticated state.
func TestCachedStatsAndReset(t *testing.T) {
	eager := []string{"updates", "verifies", "hash_ops"}
	for _, tc := range []struct {
		capacity int
		names    []string
	}{
		{0, eager},
		{DefaultDirtyCacheNodes, append(eager, "verify_hits", "flushes", "flush_hashes")},
	} {
		tr := New(withCapacity(smallConfig(), tc.capacity))
		tr.Update(1, blockWith(1))
		tr.Verify(1, blockWith(1))
		tr.PersistBarrier()
		s := tr.StatsSet()
		var r stats.Registry
		r.Register(s)
		var got []string
		for _, st := range r.Snapshot().Sets[0].Stats {
			got = append(got, st.Name)
		}
		if !reflect.DeepEqual(got, tc.names) {
			t.Fatalf("capacity %d: registered stats %v, want %v", tc.capacity, got, tc.names)
		}
		tr.ResetStats()
		for _, name := range tc.names {
			if v, _ := s.Get(name); v != 0 {
				t.Fatalf("capacity %d: %s = %v after ResetStats, want 0", tc.capacity, name, v)
			}
		}
		if ok, _ := tr.Verify(1, blockWith(1)); !ok {
			t.Fatalf("capacity %d: state must survive ResetStats", tc.capacity)
		}
	}
}

func TestEagerResetStats(t *testing.T) {
	tr := smallTree()
	tr.Update(1, blockWith(1))
	tr.Verify(1, blockWith(1))
	tr.ResetStats()
	if tr.HashOps() != 0 || tr.updates.Value() != 0 || tr.verifies.Value() != 0 {
		t.Fatal("ResetStats must zero every counter")
	}
	if ok, _ := tr.Verify(1, blockWith(1)); !ok {
		t.Fatal("state must survive ResetStats")
	}
}
