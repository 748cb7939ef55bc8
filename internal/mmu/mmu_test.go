package mmu

import (
	"testing"
	"testing/quick"

	"silentshredder/internal/addr"
)

func TestAddressSpaceMapping(t *testing.T) {
	as := NewAddressSpace(1)
	if _, ok := as.Lookup(5); ok {
		t.Fatal("empty space must not resolve")
	}
	as.Map(5, PTE{PPN: 42, Writable: true})
	pte, ok := as.Lookup(5)
	if !ok || pte.PPN != 42 || !pte.Present || !pte.Writable {
		t.Fatalf("Lookup = %+v %v", pte, ok)
	}
	old, ok := as.Unmap(5)
	if !ok || old.PPN != 42 {
		t.Fatalf("Unmap = %+v %v", old, ok)
	}
	if _, ok := as.Lookup(5); ok {
		t.Fatal("unmapped page still resolves")
	}
}

func TestTLBGeometryValidation(t *testing.T) {
	for _, cfg := range []TLBConfig{
		{Entries: 0, Assoc: 4},
		{Entries: 10, Assoc: 4},
		{Entries: 24, Assoc: 4}, // 6 sets
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cfg %+v: want panic", cfg)
				}
			}()
			NewTLB(cfg)
		}()
	}
}

func TestTLBMissFillHit(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	lat, hit := tlb.Access(1, 100)
	if hit || lat != 101 {
		t.Fatalf("cold access: hit=%v lat=%d", hit, lat)
	}
	tlb.Fill(1, 100)
	lat, hit = tlb.Access(1, 100)
	if !hit || lat != 1 {
		t.Fatalf("warm access: hit=%v lat=%d", hit, lat)
	}
	if tlb.hits.Value() != 1 || tlb.misses.Value() != 1 {
		t.Fatalf("hits/misses = %d/%d", tlb.hits.Value(), tlb.misses.Value())
	}
	if tlb.MissRate() != 0.5 {
		t.Fatalf("MissRate = %v", tlb.MissRate())
	}
}

func TestTLBASIDIsolation(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	tlb.Fill(1, 100)
	if _, hit := tlb.Access(2, 100); hit {
		t.Fatal("translation must be ASID-scoped")
	}
}

func TestTLBInvalidate(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	tlb.Fill(1, 100)
	tlb.Invalidate(1, 100)
	if _, hit := tlb.Access(1, 100); hit {
		t.Fatal("invalidated entry still hits")
	}
}

func TestTLBFlushASID(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	tlb.Fill(1, 100)
	tlb.Fill(1, 200)
	tlb.Fill(2, 100)
	tlb.FlushASID(1)
	if _, hit := tlb.Access(1, 100); hit {
		t.Fatal("asid 1 entry survived flush")
	}
	if _, hit := tlb.Access(2, 100); !hit {
		t.Fatal("asid 2 entry must survive")
	}
}

func TestTLBLRUEviction(t *testing.T) {
	// 8 entries, 4-way => 2 sets. VPNs with the same low bit share a set.
	tlb := NewTLB(TLBConfig{Entries: 8, Assoc: 4, HitLatency: 1, WalkLatency: 10})
	for i := 0; i < 4; i++ {
		tlb.Fill(1, addr.VPageNum(i*2)) // all in set 0
	}
	tlb.Access(1, 0) // refresh vpn 0
	tlb.Fill(1, 8)   // set 0 full: evicts LRU (vpn 2)
	if _, hit := tlb.Access(1, 0); !hit {
		t.Fatal("recently used entry evicted")
	}
	if _, hit := tlb.Access(1, 2); hit {
		t.Fatal("LRU entry not evicted")
	}
}

// Property: after Fill, Access hits until Invalidate; stats are coherent.
func TestTLBFillThenHitProperty(t *testing.T) {
	f := func(asid uint8, vpns []uint16) bool {
		tlb := NewTLB(DefaultTLBConfig())
		for _, v := range vpns {
			tlb.Fill(int(asid), addr.VPageNum(v))
			if _, hit := tlb.Access(int(asid), addr.VPageNum(v)); !hit {
				return false
			}
		}
		return tlb.hits.Value() == uint64(len(vpns))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStatsSet(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	tlb.Access(0, 0)
	s := tlb.StatsSet("dtlb")
	if v, ok := s.Get("misses"); !ok || v != 1 {
		t.Fatalf("misses = %v %v", v, ok)
	}
}
