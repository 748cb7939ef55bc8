package addr

import (
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	if BlocksPerPage != 64 {
		t.Fatalf("BlocksPerPage = %d, want 64", BlocksPerPage)
	}
	if 1<<BlockShift != BlockSize {
		t.Fatalf("BlockShift inconsistent")
	}
	if 1<<PageShift != PageSize {
		t.Fatalf("PageShift inconsistent")
	}
}

func TestPhysDecomposition(t *testing.T) {
	a := Phys(0x12345678)
	if got := a.Page(); got != PageNum(0x12345) {
		t.Errorf("Page() = %v", got)
	}
	if got := a.Block(); got != Phys(0x12345640) {
		t.Errorf("Block() = %#x", uint64(got))
	}
	if got := a.BlockIndex(); got != 0x19 {
		t.Errorf("BlockIndex() = %#x", got)
	}
	if got := a.PageOffset(); got != 0x678 {
		t.Errorf("PageOffset() = %#x", got)
	}
	if got := a.BlockOffset(); got != 0x38 {
		t.Errorf("BlockOffset() = %#x", got)
	}
}

func TestVirtDecompositionAndNames(t *testing.T) {
	v := Virt(0x12345678)
	if got := v.Page(); got != VPageNum(0x12345) {
		t.Errorf("Page() = %v", got)
	}
	if got := v.PageOffset(); got != 0x678 {
		t.Errorf("PageOffset() = %#x", got)
	}
	if got := v.Page().Addr() + Virt(v.PageOffset()); got != v {
		t.Errorf("page base + offset = %v, want %v", got, v)
	}
	for _, tc := range []struct{ got, want string }{
		{Phys(0x40).String(), "pa:0x40"},
		{v.String(), "va:0x12345678"},
		{PageNum(7).String(), "ppn:0x7"},
		{v.Page().String(), "vpn:0x12345"},
	} {
		if tc.got != tc.want {
			t.Errorf("String() = %q, want %q", tc.got, tc.want)
		}
	}
}

// Property: page/block decomposition reassembles into the original address.
func TestReassembleProperty(t *testing.T) {
	f := func(raw uint64) bool {
		a := Phys(raw)
		rebuilt := a.Page().Addr() + Phys(a.PageOffset())
		blkRebuilt := a.Page().BlockAddr(a.BlockIndex()) + Phys(a.BlockOffset())
		return rebuilt == a && blkRebuilt == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPageBlockAddr(t *testing.T) {
	p := PageNum(7)
	if p.Addr() != Phys(7*4096) {
		t.Fatalf("Addr() = %v", p.Addr())
	}
	if p.BlockAddr(3) != Phys(7*4096+3*64) {
		t.Fatalf("BlockAddr(3) = %v", p.BlockAddr(3))
	}
}

func TestBlockRange(t *testing.T) {
	type seg struct {
		blk Virt
		off int
		n   int
	}
	var got []seg
	BlockRange(100, 200, func(b Virt, off, n int) {
		got = append(got, seg{b, off, n})
	})
	want := []seg{{64, 36, 28}, {128, 0, 64}, {192, 0, 64}, {256, 0, 44}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("segment %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// Property: BlockRange covers exactly [a, a+size) with no gaps or overlaps.
func TestBlockRangeCoversProperty(t *testing.T) {
	f := func(start uint32, sz uint16) bool {
		a := Virt(start)
		size := int(sz % 1024)
		next := a
		total := 0
		ok := true
		BlockRange(a, size, func(b Virt, off, n int) {
			if b+Virt(off) != next {
				ok = false
			}
			if n <= 0 || off < 0 || off+n > BlockSize {
				ok = false
			}
			next = b + Virt(off) + Virt(n)
			total += n
		})
		return ok && total == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
