package cache

import (
	"testing"
	"testing/quick"

	"silentshredder/internal/addr"
)

func tiny() *Cache {
	// 2 sets x 2 ways x 64B = 256B
	return New(Config{Name: "t", Size: 256, Assoc: 2, HitLatency: 1})
}

func TestGeometryValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "bad", Size: 0, Assoc: 2},
		{Name: "bad", Size: 100, Assoc: 2},
		{Name: "bad", Size: 64 * 3 * 2, Assoc: 2}, // 3 sets, not power of two
		{Name: "bad", Size: 256, Assoc: 0},
		{Name: "bad", Size: 16 * 64, Assoc: 16}, // 1 set, but one rank word orders at most 8 ways
	} {
		if cfg.Validate() == nil {
			t.Errorf("config %+v: Validate accepted it", cfg)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v: want panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
	if err := (Config{Name: "t", Size: 256, Assoc: 2}).Validate(); err != nil {
		t.Fatalf("Validate rejected a 2-set, 2-way cache: %v", err)
	}
	if c := tiny(); len(c.ways)/c.assoc != 2 {
		t.Fatalf("sets = %d", len(c.ways)/c.assoc)
	}
}

func TestLookupInsert(t *testing.T) {
	c := tiny()
	if c.Lookup(0x40) != nil {
		t.Fatal("empty cache must miss")
	}
	c.Insert(0x40, Exclusive, false)
	l := c.Lookup(0x40)
	if l == nil || l.State() != Exclusive {
		t.Fatalf("lookup after insert = %v", l)
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d", c.Hits(), c.Misses())
	}
	if l.Addr() != 0x40 {
		t.Fatalf("Addr = %v", l.Addr())
	}
}

func TestUnalignedLookupHitsBlock(t *testing.T) {
	c := tiny()
	c.Insert(0x40, Shared, false)
	if c.Lookup(0x7F) == nil {
		t.Fatal("address within cached block must hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny() // 2 ways; blocks 0x0, 0x100, 0x200 map to set 0 (stride 128B)
	c.Insert(0x000, Shared, false)
	c.Insert(0x100, Shared, false)
	c.Lookup(0x000) // make 0x000 MRU
	victim, evicted := c.Insert(0x200, Shared, false)
	if !evicted || victim.Addr() != 0x100 {
		t.Fatalf("victim = %v evicted=%v, want 0x100", victim.Addr(), evicted)
	}
	if c.Probe(0x000) == nil || c.Probe(0x200) == nil {
		t.Fatal("wrong lines resident after eviction")
	}
}

func TestInsertExistingUpdates(t *testing.T) {
	c := tiny()
	c.Insert(0x40, Shared, false)
	_, evicted := c.Insert(0x40, Modified, true)
	if evicted {
		t.Fatal("re-insert must not evict")
	}
	l := c.Probe(0x40)
	if l.State() != Modified || !l.Dirty() {
		t.Fatalf("line = %v/%v", l.State(), l.Dirty())
	}
	// Dirty bit must be sticky across a clean re-insert.
	c.Insert(0x40, Shared, false)
	if !c.Probe(0x40).Dirty() {
		t.Fatal("dirty bit lost on re-insert")
	}
}

func TestDirtyEvictionCounted(t *testing.T) {
	c := tiny()
	c.Insert(0x000, Modified, true)
	c.Insert(0x100, Shared, false)
	victim, evicted := c.Insert(0x200, Shared, false)
	if !evicted || !victim.Dirty {
		t.Fatal("dirty victim expected")
	}
}

func TestInvalidate(t *testing.T) {
	c := tiny()
	c.Insert(0x40, Modified, true)
	l, ok := c.Invalidate(0x40)
	if !ok || !l.Dirty {
		t.Fatalf("invalidate = %+v %v", l, ok)
	}
	if _, ok := c.Invalidate(0x40); ok {
		t.Fatal("double invalidate must report absent")
	}
	if c.Probe(0x40) != nil {
		t.Fatal("line still present")
	}
}

func TestFlushAll(t *testing.T) {
	c := tiny()
	c.Insert(0x000, Modified, true)
	c.Insert(0x040, Shared, false)
	var dirty []Line
	c.FlushAll(func(l Line) { dirty = append(dirty, l) })
	if len(dirty) != 1 || dirty[0].Addr() != 0 {
		t.Fatalf("dirty = %v", dirty)
	}
	if c.Probe(0x000) != nil || c.Probe(0x040) != nil {
		t.Fatal("flush left lines resident")
	}
}

func TestMissRateAndReset(t *testing.T) {
	c := tiny()
	if c.MissRate() != 0 {
		t.Fatal("empty miss rate must be 0")
	}
	c.Lookup(0) // miss
	c.Insert(0, Shared, false)
	c.Lookup(0) // hit
	if got := c.MissRate(); got != 0.5 {
		t.Fatalf("MissRate = %v", got)
	}
	c.ResetStats()
	if c.Hits() != 0 || c.Misses() != 0 || c.MissRate() != 0 {
		t.Fatal("reset failed")
	}
	if c.Probe(0) == nil {
		t.Fatal("reset must not drop contents")
	}
}

func TestProbeDoesNotCount(t *testing.T) {
	c := tiny()
	c.Probe(0x40)
	if c.Misses() != 0 {
		t.Fatal("Probe must not count misses")
	}
}

// Property: the cache never holds two lines for the same block, and never
// holds more lines than its capacity.
func TestNoDuplicatesProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{Name: "q", Size: 1024, Assoc: 2})
		for _, op := range ops {
			a := addr.Phys(op&0x3FF) << addr.BlockShift
			switch op % 3 {
			case 0:
				c.Insert(a, Shared, false)
			case 1:
				c.Lookup(a)
			case 2:
				c.Invalidate(a)
			}
		}
		seen := map[uint64]bool{}
		total := 0
		for blk := 0; blk < 0x400; blk++ {
			a := addr.Phys(blk) << addr.BlockShift
			if c.Probe(a) != nil {
				if seen[uint64(blk)] {
					return false
				}
				seen[uint64(blk)] = true
				total++
			}
		}
		return total <= 1024/64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
