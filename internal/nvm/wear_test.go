package nvm

import (
	"math"
	"testing"

	"silentshredder/internal/addr"
)

// wearPages are the pages FuzzWearReference addresses: three data
// frames, which the page tables keep in their slices, and the first page
// of the counter region (countercache.RegionBase, 2^46), which they keep
// in their maps.
var wearPages = []addr.PageNum{0, 1, 5, addr.Phys(1 << 46).Page()}

// wearRestores are the counts a Restore step plants; wearDelete drops
// the block from the restored state instead.
const wearDelete = math.MaxUint64

var wearRestores = []uint64{0, 1, 2, 3, math.MaxUint32 - 1, math.MaxUint32, math.MaxUint32 + 7, wearDelete}

// FuzzWearReference runs a byte script against a Device's wear tracking
// and a flat per-block map with the same 32-bit cap. Each step is three
// bytes:
//
//	op    operation (mod 4): WriteBlock, wearOf, Snapshot, Restore
//	where bits 0-1: index into wearPages; bits 2-7: block index
//	value the byte WriteBlock writes, or the index into wearRestores
//	      of the count Restore plants for the block
//
// A Restore step takes a Snapshot, sets the block's count in it (or
// drops the block) and restores it. After every step the block's wearOf
// and MaxWear must match the model; a Snapshot step also compares the
// whole exported map.
func FuzzWearReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 2, 1, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 3, 1, 0, 7, 1, 0, 3, 2, 3, 3, 0, 2, 0, 0, 0, 3, 9, 1, 3, 0})
	f.Add([]byte{3, 4, 4, 0, 4, 1, 0, 4, 2, 3, 9, 6, 0, 9, 1, 2, 0, 0, 3, 8, 7, 1, 8, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		d := New(DefaultConfig())
		model := map[addr.Phys]uint64{}
		blk := make([]byte, addr.BlockSize)
		for step := 0; len(script) >= 3; step++ {
			op, where, v := script[0]%4, script[1], script[2]
			script = script[3:]
			a := wearPages[where&3].BlockAddr(int(where >> 2))
			switch op {
			case 0:
				for i := range blk {
					blk[i] = v
				}
				d.WriteBlock(a, blk)
				model[a] = min(model[a]+1, math.MaxUint32)
			case 1:
				if got := d.wearOf(a); got != model[a] {
					t.Fatalf("step %d: wearOf(%v) = %d, want %d", step, a, got, model[a])
				}
			case 2:
				checkWearState(t, step, d.Snapshot().Wear, model)
			case 3:
				st := d.Snapshot()
				if w := wearRestores[int(v)%len(wearRestores)]; w == wearDelete {
					delete(st.Wear, a)
					delete(model, a)
				} else {
					st.Wear[a] = w
					model[a] = min(w, math.MaxUint32)
				}
				d.Restore(st)
			}
			if got := d.wearOf(a); got != model[a] {
				t.Fatalf("step %d op %d: wearOf(%v) = %d, want %d", step, op, a, got, model[a])
			}
			var maxWear uint64
			for _, w := range model {
				maxWear = max(maxWear, w)
			}
			if d.MaxWear() != maxWear {
				t.Fatalf("step %d op %d: MaxWear = %d, want %d", step, op, d.MaxWear(), maxWear)
			}
		}
		checkWearState(t, -1, d.Snapshot().Wear, model)
	})
}

func checkWearState(t *testing.T, step int, got, want map[addr.Phys]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d: Snapshot has %d wear entries, want %d", step, len(got), len(want))
	}
	for a, w := range want {
		if g, ok := got[a]; !ok || g != w {
			t.Fatalf("step %d: Snapshot wear of %v = %d (present %v), want %d", step, a, g, ok, w)
		}
	}
}

// Wear accounting allocates only when a page is first written, which
// grows the mask table, and when a block of it is first rewritten, which
// gives the page counts. Every other write allocates nothing: a new
// block of a written page, and any block of a page with counts, on
// both sides of the page tables.
func TestWearWritesZeroAllocs(t *testing.T) {
	for _, p := range []addr.PageNum{3, addr.Phys(1 << 46).Page()} {
		d := New(DefaultConfig())
		blk := make([]byte, addr.BlockSize)
		d.WriteBlock(p.BlockAddr(0), blk)
		next := 1
		if n := testing.AllocsPerRun(50, func() {
			d.WriteBlock(p.BlockAddr(next), blk)
			next++
		}); n != 0 {
			t.Errorf("page %d: a new block of a written page: %v allocs/op, want 0", p, n)
		}
		d.WriteBlock(p.BlockAddr(0), blk) // gives the page counts
		if n := testing.AllocsPerRun(50, func() {
			d.WriteBlock(p.BlockAddr(next%addr.BlocksPerPage), blk)
			next++
		}); n != 0 {
			t.Errorf("page %d: a block of a page with counts: %v allocs/op, want 0", p, n)
		}
		if d.counts.Get(p) == nil {
			t.Fatalf("page %d: no counts after a rewrite", p)
		}
	}
}
