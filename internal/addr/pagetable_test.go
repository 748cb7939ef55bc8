package addr

import (
	"math/bits"
	"slices"
	"testing"
)

// pageCands are the pages FuzzPageTable draws from: pages near 0 and
// past the first slice growth, both sides of the dense bound, and the
// counter region's tag pages at 2^34.
var pageCands = [16]PageNum{
	0, 1, 2, 63, 64, 65, 1000, 4095,
	densePages - 2, densePages - 1, densePages, densePages + 1,
	1 << 30, 1<<30 + 1, 1 << 34, 1<<34 + 1,
}

// visit returns the pages and values ForEach visits, in visit order.
func visit[T comparable](t *PageTable[T]) ([]PageNum, []T) {
	var ps []PageNum
	var vs []T
	t.ForEach(func(p PageNum, v T) {
		ps = append(ps, p)
		vs = append(vs, v)
	})
	return ps, vs
}

func TestPageTable(t *testing.T) {
	var pt PageTable[uint64]
	if pt.Get(5) != 0 || pt.Ptr(5) != nil || pt.Ptr(1<<34) != nil {
		t.Fatal("zero table must be empty")
	}
	if ps, _ := visit(&pt); len(ps) != 0 {
		t.Fatalf("zero table visits %v", ps)
	}

	pt.Set(3, 7)
	if len(pt.dense) != minDense || pt.Get(3) != 7 {
		t.Fatalf("after Set(3): len %d, Get %d", len(pt.dense), pt.Get(3))
	}
	if s := pt.Ptr(10); s == nil || *s != 0 {
		t.Fatal("a page inside the slice must have an empty slot")
	}
	pt.Set(minDense, 1)
	if len(pt.dense) != 2*minDense {
		t.Fatalf("slice grew to %d, want %d", len(pt.dense), 2*minDense)
	}

	// Storing zero where there is no slot grows nothing.
	pt.Set(1000, 0)
	pt.Set(1<<34, 0)
	if len(pt.dense) != 2*minDense || len(pt.sparse) != 0 {
		t.Fatalf("zero Set grew the table: len %d, map %d", len(pt.dense), len(pt.sparse))
	}

	// Map-side slots keep their address across later growth.
	pt.Set(densePages, 9)
	s := pt.Ptr(densePages)
	pt.Set(densePages+5, 2)
	pt.Set(1<<34, 4)
	if s != pt.Ptr(densePages) || *s != 9 {
		t.Fatal("map-side slot moved")
	}
	*s |= 0x10
	if pt.Get(densePages) != 0x19 {
		t.Fatalf("write through Ptr lost: %#x", pt.Get(densePages))
	}

	pt.Set(densePages+5, 0) // a zero value is absent
	ps, vs := visit(&pt)
	if want := []PageNum{3, minDense, densePages, 1 << 34}; !slices.Equal(ps, want) {
		t.Fatalf("ForEach pages %v, want %v", ps, want)
	}
	if want := []uint64{7, 1, 0x19, 4}; !slices.Equal(vs, want) {
		t.Fatalf("ForEach values %v, want %v", vs, want)
	}

	n := len(pt.dense)
	pt.Reset()
	if ps, _ := visit(&pt); len(ps) != 0 || pt.Get(3) != 0 || pt.Get(1<<34) != 0 {
		t.Fatalf("Reset left pages %v", ps)
	}
	if len(pt.dense) != n {
		t.Fatal("Reset must keep the slice")
	}
}

// The accessors allocate nothing, and Set allocates nothing on a page
// that already has a slot.
func TestPageTableZeroAllocs(t *testing.T) {
	var pt PageTable[*int]
	v := new(int)
	pt.Set(7, v)
	pt.Set(1<<34, v)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"Get present", func() { _ = pt.Get(7) }},
		{"Get absent", func() { _ = pt.Get(9000) }},
		{"Get present map", func() { _ = pt.Get(1 << 34) }},
		{"Get absent map", func() { _ = pt.Get(1<<34 + 1) }},
		{"Ptr present", func() { _ = pt.Ptr(7) }},
		{"Ptr absent", func() { _ = pt.Ptr(9000) }},
		{"Ptr present map", func() { _ = pt.Ptr(1 << 34) }},
		{"Ptr absent map", func() { _ = pt.Ptr(1<<34 + 1) }},
		{"Set slot", func() { pt.Set(8, v) }},
		{"Set slot map", func() { pt.Set(1<<34, v) }},
	} {
		if n := testing.AllocsPerRun(100, tc.f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}

// FuzzPageTable runs a byte script against a PageTable and a map model.
// Each step is three bytes:
//
//	op    bits 0-6: operation (mod 5: Get, Ptr, Set, ForEach, Reset);
//	      bit 7: Ptr also stores the value through the slot it returns
//	page  bits 0-3: index into pageCands
//	value the value Set or Ptr stores; 0 makes the page absent
//
// After every step it checks the table's shape: the slice is empty or a
// power of two between minDense and densePages long, and the map holds
// only pages at or above densePages.
func FuzzPageTable(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 9, 2, 3, 0, 0, 0, 9, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		var pt PageTable[uint8]
		model := map[PageNum]uint8{}
		for step := 0; len(script) >= 3; step++ {
			op, p, v := script[0], pageCands[script[1]&15], script[2]
			script = script[3:]
			n, m := len(pt.dense), len(pt.sparse)
			kind := (op & 0x7f) % 5
			switch kind {
			case 0:
				if got := pt.Get(p); got != model[p] {
					t.Fatalf("step %d: Get(%d) = %d, want %d", step, p, got, model[p])
				}
			case 1:
				s := pt.Ptr(p)
				if s == nil && model[p] != 0 {
					t.Fatalf("step %d: Ptr(%d) = nil for a present page", step, p)
				}
				if s != nil && *s != model[p] {
					t.Fatalf("step %d: *Ptr(%d) = %d, want %d", step, p, *s, model[p])
				}
				if s != nil && op&0x80 != 0 {
					*s = v
					model[p] = v
				}
			case 2:
				pt.Set(p, v)
				model[p] = v
				if got := pt.Get(p); got != v {
					t.Fatalf("step %d: Get(%d) after Set = %d, want %d", step, p, got, v)
				}
			case 3:
				var want []PageNum
				for q, x := range model {
					if x != 0 {
						want = append(want, q)
					}
				}
				slices.Sort(want)
				ps, vs := visit(&pt)
				if !slices.Equal(ps, want) {
					t.Fatalf("step %d: ForEach pages %v, want %v", step, ps, want)
				}
				for i, q := range ps {
					if vs[i] != model[q] {
						t.Fatalf("step %d: ForEach(%d) = %d, want %d", step, q, vs[i], model[q])
					}
				}
			case 4:
				pt.Reset()
				clear(model)
			}
			if kind <= 1 && (len(pt.dense) != n || len(pt.sparse) != m) {
				t.Fatalf("step %d: Get/Ptr grew the table", step)
			}
			if n := len(pt.dense); n != 0 && (n < minDense || n > densePages || bits.OnesCount(uint(n)) != 1) {
				t.Fatalf("step %d: slice length %d", step, n)
			}
			for q := range pt.sparse {
				if q < densePages {
					t.Fatalf("step %d: page %d in the map", step, q)
				}
			}
		}
	})
}
