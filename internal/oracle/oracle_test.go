package oracle

import (
	"bytes"
	"strings"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/apprt"
)

func TestUntouchedMemoryReadsZeros(t *testing.T) {
	o := New()
	got := o.Read(0x1234_5678, 64)
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatalf("untouched memory = %x", got)
	}
	if o.Pages() != 0 {
		t.Fatal("a read must not materialize pages")
	}
}

func TestStoreObserveAndCheckLoad(t *testing.T) {
	o := New()
	va := addr.Virt(0x1000_0000)
	o.Observe(apprt.TraceOp{Kind: apprt.TraceStore, VA: va, Arg: 0x0807060504030201})
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := o.CheckLoad(va, want); err != nil {
		t.Fatal(err)
	}
	if err := o.CheckLoad(va, []byte{9, 2, 3, 4, 5, 6, 7, 8}); err == nil {
		t.Fatal("mismatch not detected")
	} else if !strings.Contains(err.Error(), "machine returned 0x09") {
		t.Fatalf("uninformative error: %v", err)
	}
}

func TestPageCrossingLoadsAreSkipped(t *testing.T) {
	o := New()
	// Last 4 bytes of one page + first 4 of the next: the machine reads
	// these physically contiguously, so no virtual expectation exists.
	va := addr.Virt(0x1000_0000 + addr.PageSize - 4)
	if err := o.CheckLoad(va, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatalf("page-crossing load must be skipped, got %v", err)
	}
	// And a page-crossing store only mirrors the in-page portion.
	o.Observe(apprt.TraceOp{Kind: apprt.TraceStore, VA: va, Arg: ^uint64(0)})
	next := addr.Virt(0x1000_0000 + addr.PageSize)
	if got := o.Read(next, 4); !bytes.Equal(got, make([]byte, 4)) {
		t.Fatalf("spill bytes must not be modeled: %x", got)
	}
	if got := o.Read(va, 4); !bytes.Equal(got, []byte{0xFF, 0xFF, 0xFF, 0xFF}) {
		t.Fatalf("in-page portion lost: %x", got)
	}
}

func TestMemsetDecodesPackedArg(t *testing.T) {
	o := New()
	va := addr.Virt(0x2000_0000)
	n := 3 * addr.PageSize / 2 // crosses a page boundary
	arg := uint64(n)<<9 | 1<<8 | 0xAB
	o.Observe(apprt.TraceOp{Kind: apprt.TraceMemset, VA: va, Arg: arg})
	got := o.Read(va, n+8)
	if !bytes.Equal(got[:n], bytes.Repeat([]byte{0xAB}, n)) {
		t.Fatal("memset bytes wrong")
	}
	if !bytes.Equal(got[n:], make([]byte, 8)) {
		t.Fatal("memset overran its length")
	}
}

func TestFreeAndShredRangeZeroAndBumpGeneration(t *testing.T) {
	o := New()
	va := addr.Virt(0x3000_0000)
	o.Observe(apprt.TraceOp{Kind: apprt.TraceStore, VA: va, Arg: 0xDEAD})
	o.Observe(apprt.TraceOp{Kind: apprt.TraceStore, VA: va + addr.PageSize, Arg: 0xBEEF})

	if g := o.gen[va.Page()]; g != 0 {
		t.Fatalf("initial generation = %d", g)
	}
	o.Observe(apprt.TraceOp{Kind: apprt.TraceShredRange, VA: va, Arg: 2})
	if g := o.gen[va.Page()]; g != 1 {
		t.Fatalf("generation after shred = %d", g)
	}
	if got := o.Read(va, 8); !bytes.Equal(got, make([]byte, 8)) {
		t.Fatalf("shredded memory = %x", got)
	}

	o.Observe(apprt.TraceOp{Kind: apprt.TraceStore, VA: va, Arg: 1})
	// Free with a byte size that rounds up to whole pages.
	o.Observe(apprt.TraceOp{Kind: apprt.TraceFree, VA: va, Arg: uint64(addr.PageSize + 1)})
	if g := o.gen[(va + addr.PageSize).Page()]; g != 2 {
		t.Fatalf("free must cover rounded-up pages, generation = %d", g)
	}
	if got := o.Read(va, 16); !bytes.Equal(got, make([]byte, 16)) {
		t.Fatalf("freed memory = %x", got)
	}
}

func TestStoreBytesSpansPages(t *testing.T) {
	o := New()
	va := addr.Virt(0x4000_0000 + addr.PageSize - 3)
	o.ObserveStoreBytes(va, []byte{1, 2, 3, 4, 5, 6})
	if err := o.CheckBytes(va, []byte{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckPage(t *testing.T) {
	o := New()
	va := addr.Virt(0x5000_0000)
	o.Observe(apprt.TraceOp{Kind: apprt.TraceStore, VA: va, Arg: 7})
	var page [addr.PageSize]byte
	page[0] = 7
	if err := o.CheckPage(va.Page(), &page); err != nil {
		t.Fatal(err)
	}
	if err := o.CheckPage(va.Page(), nil); err == nil {
		t.Fatal("all-zeros claim must fail for a written page")
	}
	// An unmaterialized page agrees with "reads as zeros".
	if err := o.CheckPage(va.Page()+1, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	a := Generate(DefaultGenConfig(7))
	b := Generate(DefaultGenConfig(7))
	if len(a.Ops) != len(b.Ops) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Ops), len(b.Ops))
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a.Ops[i], b.Ops[i])
		}
	}
	c := Generate(DefaultGenConfig(8))
	same := len(a.Ops) == len(c.Ops)
	if same {
		for i := range a.Ops {
			if a.Ops[i] != c.Ops[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestGenerateStreamWellFormed(t *testing.T) {
	cfg := DefaultGenConfig(3)
	w := Generate(cfg)
	if len(w.Ops) < cfg.Ops {
		t.Fatalf("generated %d ops, want >= %d", len(w.Ops), cfg.Ops)
	}

	// Mallocs must mirror the kernel's bump allocator exactly.
	cursor := mmapBase
	live := 0
	kinds := map[apprt.TraceKind]int{}
	for _, op := range w.Ops {
		kinds[op.Kind]++
		switch op.Kind {
		case apprt.TraceMalloc:
			if op.VA != cursor {
				t.Fatalf("malloc at %v, bump cursor expects %v", op.VA, cursor)
			}
			npages := (int(op.Arg) + addr.PageSize - 1) / addr.PageSize
			cursor += addr.Virt(npages) * addr.PageSize
			live += npages
		case apprt.TraceFree:
			live -= (int(op.Arg) + addr.PageSize - 1) / addr.PageSize
		case apprt.TraceStore, apprt.TraceLoad:
			if op.VA%8 != 0 {
				t.Fatalf("unaligned %d-byte access at %v", 8, op.VA)
			}
		}
		if live > cfg.MaxLivePages {
			t.Fatalf("live footprint %d exceeds budget %d", live, cfg.MaxLivePages)
		}
	}
	// The mix must exercise every contract-relevant operation.
	for _, k := range []apprt.TraceKind{
		apprt.TraceMalloc, apprt.TraceFree, apprt.TraceStore, apprt.TraceLoad,
		apprt.TraceMemset, apprt.TraceShredRange,
	} {
		if kinds[k] == 0 {
			t.Fatalf("generated stream never issues kind %d", k)
		}
	}
	// Region bookkeeping must agree with the op stream.
	if len(w.Regions) == 0 {
		t.Fatal("no regions recorded")
	}
	for _, r := range w.Regions {
		if r.Npages <= 0 || r.VA < mmapBase {
			t.Fatalf("bad region %+v", r)
		}
	}
}

func TestOracleSelfConsistentOverGeneratedStream(t *testing.T) {
	// The oracle replaying its own generated stream: loads of freed
	// regions must read zeros, and every store must be recoverable until
	// the region is freed or shredded.
	w := Generate(DefaultGenConfig(11))
	o := New()
	for _, op := range w.Ops {
		o.Observe(op)
	}
	for _, r := range w.Regions {
		if !r.Live {
			got := o.Read(r.VA, r.Npages*addr.PageSize)
			if !bytes.Equal(got, make([]byte, len(got))) {
				t.Fatalf("freed region %v still holds data", r.VA)
			}
		}
	}
}
