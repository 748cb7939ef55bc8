package integrity

import (
	"math/rand"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/ctr"
)

// FuzzEngineEquivalence drives both engines through the same
// fuzzer-chosen operation script — updates, per-page persists, barriers,
// interleaved verifications — and requires that they never disagree: on
// every verification verdict, on replay detection, and on the root
// register once the cached engine's pending work is drained. A step
// whose top bit is set also checks the eager root against the
// from-scratch reference, so the eager engine's deferred host rehash is
// observed at arbitrary points. The script is one byte per step; the
// seed derives page numbers and block values deterministically so any
// corpus entry replays exactly.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3})
	f.Add(int64(42), []byte{0, 0, 0, 0, 2, 1, 1, 3, 2, 0})
	f.Add(int64(-7), []byte{255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 3, 3, 3})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		cfg := Config{Depth: 8, CachedLevels: 3, HashLatency: 40, DirtyCacheNodes: 16}
		eager := NewTree(cfg)
		cfg.Engine = EngineCached
		cached := NewCachedTree(cfg)
		rng := rand.New(rand.NewSource(seed))
		current := map[addr.PageNum][ctr.CounterBlockSize]byte{}

		for i, b := range script {
			p := addr.PageNum(rng.Intn(256))
			switch b % 4 {
			case 0, 1: // update (the common case, twice the weight)
				blk := blockWith(byte(rng.Intn(255) + 1))
				current[p] = blk
				if le, lc := eager.Update(p, blk), cached.Update(p, blk); le < lc {
					t.Fatalf("step %d: lazy update costlier than eager (%d vs %d)", i, lc, le)
				}
			case 2: // per-page persist
				cached.Persisted(p)
				eager.Persisted(p)
			case 3: // machine-wide barrier: roots must now agree
				cached.PersistBarrier()
				eager.PersistBarrier()
				if eager.Root() != cached.Root() {
					t.Fatalf("step %d: roots diverge after barrier", i)
				}
			}
			if b&0x80 != 0 && eager.Root() != referenceRoot(cfg.Depth, current) {
				t.Fatalf("step %d: eager root differs from the reference", i)
			}
			if vp, ok := current[p]; ok && rng.Intn(4) == 0 {
				okE, _ := eager.Verify(p, vp)
				okC, _ := cached.Verify(p, vp)
				if !okE || !okC {
					t.Fatalf("step %d: current block rejected (eager=%v cached=%v)", i, okE, okC)
				}
			}
		}

		cached.PersistBarrier()
		if eager.Root() != cached.Root() {
			t.Fatal("final roots diverge")
		}
		for p, blk := range current {
			if eager.Authenticate(p, blk) != nil || cached.Authenticate(p, blk) != nil {
				t.Fatalf("page %d: current block fails authentication", p)
			}
			stale := blk
			stale[0] ^= 0xFF
			errE := eager.Authenticate(p, stale)
			errC := cached.Authenticate(p, stale)
			if (errE == nil) != (errC == nil) {
				t.Fatalf("page %d: replay detection diverges (eager=%v cached=%v)", p, errE, errC)
			}
		}
	})
}
