package wearlevel

import (
	"testing"

	"silentshredder/internal/addr"
)

func TestRemapBijection(t *testing.T) {
	r := NewRemap(8)
	a := addr.Phys(0x1000)
	if r.Resolve(a) != a || r.Len() != 0 {
		t.Fatal("fresh remap must be identity")
	}
	spare, err := r.Retire(a)
	if err != nil {
		t.Fatal(err)
	}
	if spare < SpareBase {
		t.Fatalf("spare %v below SpareBase", spare)
	}
	if r.Resolve(a) != spare || r.Len() != 1 {
		t.Fatalf("retired line not remapped: resolves to %v, %d lines remapped", r.Resolve(a), r.Len())
	}
	// Re-retiring a failed spare moves the line to a fresh spare.
	spare2, err := r.Retire(a)
	if err != nil {
		t.Fatal(err)
	}
	if spare2 == spare || r.Resolve(a) != spare2 || r.Len() != 1 {
		t.Fatal("re-retirement did not move the line")
	}
}

func TestRemapForEachAscending(t *testing.T) {
	r := NewRemap(8)
	for _, a := range []addr.Phys{0x3000, 0x1000, 0x2040} {
		if _, err := r.Retire(a); err != nil {
			t.Fatal(err)
		}
	}
	var got []addr.Phys
	r.ForEach(func(logical, spare addr.Phys) {
		if r.Resolve(logical) != spare {
			t.Errorf("ForEach paired %v with %v, Resolve says %v", logical, spare, r.Resolve(logical))
		}
		got = append(got, logical)
	})
	if len(got) != 3 || got[0] != 0x1000 || got[1] != 0x2040 || got[2] != 0x3000 {
		t.Fatalf("ForEach visited %v, want ascending logical lines", got)
	}
}

func TestRemapDistinctSpares(t *testing.T) {
	r := NewRemap(16)
	seen := make(map[addr.Phys]bool)
	for i := 0; i < 16; i++ {
		spare, err := r.Retire(addr.Phys(i) * addr.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		if seen[spare] {
			t.Fatalf("spare %v handed out twice", spare)
		}
		seen[spare] = true
	}
	if _, err := r.Retire(addr.Phys(99) * addr.BlockSize); err == nil {
		t.Fatal("exhausted remap must refuse further retirements")
	}
}
