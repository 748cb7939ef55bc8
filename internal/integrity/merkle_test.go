package integrity

import (
	"testing"
	"testing/quick"

	"silentshredder/internal/addr"
	"silentshredder/internal/ctr"
)

func smallTree() *Tree {
	return New(Config{Depth: 8, CachedLevels: 3, HashLatency: 40})
}

func blockWith(b byte) [ctr.CounterBlockSize]byte {
	var out [ctr.CounterBlockSize]byte
	for i := range out {
		out[i] = b
	}
	return out
}

func TestEmptyTreeVerifiesEmptyLeaf(t *testing.T) {
	tr := smallTree()
	ok, _ := tr.Verify(0, [ctr.CounterBlockSize]byte{})
	if !ok {
		t.Fatal("empty leaf must verify against empty tree")
	}
}

func TestUpdateThenVerify(t *testing.T) {
	tr := smallTree()
	tr.Update(5, blockWith(1))
	ok, _ := tr.Verify(5, blockWith(1))
	if !ok {
		t.Fatal("updated leaf must verify")
	}
	ok, _ = tr.Verify(5, blockWith(2))
	if ok {
		t.Fatal("wrong data must not verify")
	}
}

func TestTamperDetectedOnSiblingPath(t *testing.T) {
	tr := smallTree()
	tr.Update(4, blockWith(1))
	tr.Update(5, blockWith(2))
	// Leaf 4's path includes leaf 5 as sibling: tampering with 5 must not
	// break 4, but presenting 5's data as 4's must fail.
	if ok, _ := tr.Verify(4, blockWith(1)); !ok {
		t.Fatal("leaf 4 must still verify")
	}
	if ok, _ := tr.Verify(4, blockWith(2)); ok {
		t.Fatal("replaying leaf 5's data at leaf 4 must fail")
	}
}

func TestRootChangesOnUpdate(t *testing.T) {
	tr := smallTree()
	r0 := tr.Root()
	tr.Update(0, blockWith(1))
	r1 := tr.Root()
	if r0 == r1 {
		t.Fatal("root must change after update")
	}
	tr.Update(0, blockWith(1))
	if tr.Root() != r1 {
		t.Fatal("identical update must be idempotent")
	}
}

// Property: a replay attack — presenting any *previous* counter block
// value after an update — is always detected.
func TestReplayDetectedProperty(t *testing.T) {
	f := func(page uint8, v1, v2 byte) bool {
		if v1 == v2 {
			return true
		}
		tr := smallTree()
		p := addr.PageNum(page)
		tr.Update(p, blockWith(v1))
		tr.Update(p, blockWith(v2))
		okOld, _ := tr.Verify(p, blockWith(v1))
		okNew, _ := tr.Verify(p, blockWith(v2))
		return !okOld && okNew
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestVerifyCostUsesBonsaiCaching(t *testing.T) {
	deep := New(Config{Depth: 24, CachedLevels: 10, HashLatency: 40})
	shallowCached := New(Config{Depth: 24, CachedLevels: 0, HashLatency: 40})
	var zero [ctr.CounterBlockSize]byte
	_, deepCost := deep.Verify(0, zero)
	_, shallowCost := shallowCached.Verify(0, zero)
	if deepCost >= shallowCost {
		t.Fatalf("cached levels must reduce verify cost: %d vs %d", deepCost, shallowCost)
	}
	if deepCost != 15*40 {
		t.Fatalf("verify cost = %d, want 600", deepCost)
	}
}

func TestUpdateLatency(t *testing.T) {
	tr := smallTree()
	if lat := tr.Update(0, blockWith(1)); lat != 9*40 {
		t.Fatalf("update latency = %d, want 360", lat)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{{Depth: 0}, {Depth: 41}, {Depth: 8, DirtyCacheNodes: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("want panic for %+v", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestCachedLevelsClamped(t *testing.T) {
	tr := New(Config{Depth: 4, CachedLevels: 99, HashLatency: 1})
	if _, cost := tr.Verify(0, [ctr.CounterBlockSize]byte{}); cost != 1 {
		t.Fatalf("clamped verify cost = %d", cost)
	}
}

func TestStats(t *testing.T) {
	tr := smallTree()
	tr.Update(1, blockWith(1))
	tr.Verify(1, blockWith(1))
	s := tr.StatsSet()
	if v, _ := s.Get("updates"); v != 1 {
		t.Fatalf("updates = %v", v)
	}
	if v, _ := s.Get("verifies"); v != 1 {
		t.Fatalf("verifies = %v", v)
	}
	if tr.HashOps() == 0 {
		t.Fatal("hash ops not counted")
	}
}

func TestDistinctLeavesIndependent(t *testing.T) {
	tr := smallTree()
	for i := 0; i < 16; i++ {
		tr.Update(addr.PageNum(i), blockWith(byte(i+1)))
	}
	for i := 0; i < 16; i++ {
		if ok, _ := tr.Verify(addr.PageNum(i), blockWith(byte(i+1))); !ok {
			t.Fatalf("leaf %d failed to verify", i)
		}
	}
}
