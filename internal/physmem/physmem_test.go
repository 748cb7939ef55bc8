package physmem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"silentshredder/internal/addr"
)

// resident lists m's materialized pages in ascending order.
func resident(m *Image) []addr.PageNum {
	var ps []addr.PageNum
	m.ForEachPage(func(p addr.PageNum, _ *[addr.PageSize]byte) { ps = append(ps, p) })
	return ps
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(true)
	data := []byte("hello, nvmm")
	m.Write(1000, data)
	got := make([]byte, len(data))
	m.Read(1000, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	m := New(true)
	got := []byte{1, 2, 3}
	m.Read(0x999999, got)
	if !bytes.Equal(got, []byte{0, 0, 0}) {
		t.Fatal("unwritten memory must read as zeros")
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New(true)
	a := addr.Phys(addr.PageSize - 3)
	data := []byte{1, 2, 3, 4, 5, 6}
	m.Write(a, data)
	got := make([]byte, 6)
	m.Read(a, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("cross-page round trip = %v", got)
	}
	if got := resident(m); !slices.Equal(got, []addr.PageNum{0, 1}) {
		t.Fatalf("resident pages = %v, want both pages", got)
	}
}

func TestDisabledImage(t *testing.T) {
	m := New(false)
	if m.Enabled() {
		t.Fatal("Enabled must be false")
	}
	m.Write(0, []byte{9})
	got := []byte{5}
	m.Read(0, got)
	if got[0] != 0 {
		t.Fatal("disabled image must read zeros")
	}
	m.ZeroPage(0)
	if got := resident(m); len(got) != 0 {
		t.Fatalf("disabled image materialized pages %v", got)
	}
}

// TestU64Helpers: the word path gives the same bytes as an 8-byte Read
// or Write, for words inside a page, ending at its last byte, and
// crossing into the next page, on materialized and unmaterialized
// pages and on a disabled image.
func TestU64Helpers(t *testing.T) {
	pattern := make([]byte, 2*addr.PageSize)
	for i := range pattern {
		pattern[i] = byte(i*7 + 3)
	}
	base := addr.PageNum(1).Addr()
	for _, img := range []struct {
		name        string
		store, fill bool
	}{
		{"materialized", true, true},
		{"unmaterialized", true, false},
		{"disabled", false, false},
	} {
		for _, off := range []addr.Phys{0, 8, 4087, 4088, 4089, 4095} {
			a := base + off
			word, bytewise := New(img.store), New(img.store)
			if img.fill {
				word.Write(base, pattern)
				bytewise.Write(base, pattern)
			}
			var b [8]byte
			bytewise.Read(a, b[:])
			if got, want := word.ReadU64(a), binary.LittleEndian.Uint64(b[:]); got != want {
				t.Errorf("%s +%d: ReadU64 = %#x, Read gives %#x", img.name, off, got, want)
			}
			const v = 0x0102030405060708
			word.WriteU64(a, v)
			binary.LittleEndian.PutUint64(b[:], v)
			bytewise.Write(a, b[:])
			if !reflect.DeepEqual(word.Snapshot(), bytewise.Snapshot()) {
				t.Errorf("%s +%d: WriteU64 and Write leave different images", img.name, off)
			}
			if got, want := word.ReadU64(a), uint64(v); img.store && got != want || !img.store && got != 0 {
				t.Errorf("%s +%d: ReadU64 after WriteU64 = %#x", img.name, off, got)
			}
		}
	}
}

var sinkU64 uint64

// BenchmarkReadU64Scattered reads one word from each of 512 materialized
// pages in a fixed shuffled order, so consecutive reads never share a
// page: the access pattern of PageRank's vertex reads.
func BenchmarkReadU64Scattered(b *testing.B) {
	const pages = 512
	m := New(true)
	addrs := make([]addr.Phys, pages)
	for i, p := range rand.New(rand.NewSource(1)).Perm(pages) {
		addrs[i] = addr.PageNum(p).Addr() + addr.Phys(i%64*64)
		m.WriteU64(addrs[i], uint64(p))
	}
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += m.ReadU64(addrs[i%pages])
	}
	sinkU64 = sum
}

func TestZeroPage(t *testing.T) {
	m := New(true)
	m.Write(addr.PageNum(2).Addr(), bytes.Repeat([]byte{0xFF}, addr.PageSize))
	m.ZeroPage(2)
	blk := m.ReadBlock(addr.PageNum(2).Addr())
	if blk != [addr.BlockSize]byte{} {
		t.Fatal("ZeroPage did not clear contents")
	}
	m.ZeroPage(77) // non-resident: must not materialize
	if got := resident(m); !slices.Equal(got, []addr.PageNum{2}) {
		t.Fatalf("resident pages = %v: ZeroPage materialized a page", got)
	}
}

// Property: disjoint writes are independent; the last write to an address wins.
func TestLastWriteWinsProperty(t *testing.T) {
	f := func(a uint16, v1, v2 byte) bool {
		m := New(true)
		m.Write(addr.Phys(a), []byte{v1})
		m.Write(addr.Phys(a), []byte{v2})
		got := []byte{0}
		m.Read(addr.Phys(a), got)
		return got[0] == v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadBlockAlignsDown(t *testing.T) {
	m := New(true)
	m.Write(64, []byte{42})
	blk := m.ReadBlock(100) // inside block starting at 64
	if blk[0] != 42 {
		t.Fatal("ReadBlock must align to block base")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	m := New(true)
	m.Write(addr.PageNum(1).BlockAddr(0), []byte("alpha"))
	m.Write(addr.PageNum(9).BlockAddr(3), []byte("beta"))

	snap := m.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d pages, want 2", len(snap))
	}

	// Mutating the snapshot must not alias the live image.
	snap[addr.PageNum(1)][0] = 'X'
	got := make([]byte, 5)
	m.Read(addr.PageNum(1).BlockAddr(0), got)
	if string(got) != "alpha" {
		t.Fatalf("snapshot aliases the image: %q", got)
	}
	snap[addr.PageNum(1)][0] = 'a'

	// Diverge the image, then restore the checkpoint.
	m.Write(addr.PageNum(1).BlockAddr(0), []byte("gamma"))
	m.Write(addr.PageNum(77).BlockAddr(0), []byte("extra"))
	m.Restore(snap)
	if got := resident(m); !slices.Equal(got, []addr.PageNum{1, 9}) {
		t.Fatalf("restore kept diverged state: pages %v", got)
	}
	m.Read(addr.PageNum(1).BlockAddr(0), got)
	if string(got) != "alpha" {
		t.Fatalf("restored contents = %q", got)
	}

	// Nil snapshot clears everything.
	m.Restore(nil)
	if got := resident(m); len(got) != 0 {
		t.Fatalf("Restore(nil) left pages %v", got)
	}
}

func TestSnapshotRestoreDisabled(t *testing.T) {
	m := New(false)
	m.Write(0, []byte{1})
	if m.Snapshot() != nil {
		t.Fatal("disabled image must snapshot to nil")
	}
	m.Restore(map[addr.PageNum][]byte{addr.PageNum(1): make([]byte, addr.PageSize)})
	if got := resident(m); len(got) != 0 {
		t.Fatalf("disabled image restored pages %v", got)
	}
}

func TestForEachPageOrdered(t *testing.T) {
	m := New(true)
	for _, p := range []addr.PageNum{42, 7, 19} {
		m.Write(p.BlockAddr(0), []byte{byte(p)})
	}
	var order []addr.PageNum
	m.ForEachPage(func(p addr.PageNum, data *[addr.PageSize]byte) {
		order = append(order, p)
		if data[0] != byte(p) {
			t.Fatalf("page %d holds %d", p, data[0])
		}
	})
	if len(order) != 3 || order[0] != 7 || order[1] != 19 || order[2] != 42 {
		t.Fatalf("walk order = %v, want ascending", order)
	}
}
