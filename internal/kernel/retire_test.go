package kernel

// Page-retirement tests: the kernel's graceful-degradation policy when
// the memory controller reports a dying frame.

import (
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/memctrl"
)

func TestRetirePageWithdrawsFrame(t *testing.T) {
	k := testKernel(t, memctrl.SilentShredder, ZeroShred)
	p := k.NewProcess()

	// Fault a page in to learn a frame the allocator hands out.
	va := addr.Virt(0x5000_0000)
	pa, _ := k.Translate(0, p, va, true)
	ppn := pa.Page()
	if k.retired[ppn] {
		t.Fatal("fresh frame reported retired")
	}

	k.RetirePage(ppn)
	if !k.retired[ppn] || k.PagesRetired() != 1 {
		t.Fatalf("retired=%v count=%d", k.retired[ppn], k.PagesRetired())
	}
	// Idempotent: retiring again does not double-count.
	k.RetirePage(ppn)
	if k.PagesRetired() != 1 {
		t.Fatalf("PagesRetired = %d after double retire", k.PagesRetired())
	}
	// The existing mapping stays usable (controller line-remap backs it).
	if got, _ := k.Translate(0, p, va, true); got != pa {
		t.Fatal("retirement broke the live mapping")
	}
}

func TestRetiredFrameNeverReallocated(t *testing.T) {
	k := testKernel(t, memctrl.SilentShredder, ZeroShred)
	p := k.NewProcess()

	va := addr.Virt(0x5000_0000)
	pa, _ := k.Translate(0, p, va, true)
	ppn := pa.Page()
	k.RetirePage(ppn)

	// Release the frame back to the pool, then refault: the allocator
	// must skip the retired frame.
	k.ExitProcess(p)
	p2 := k.NewProcess()
	for i := 0; i < 64; i++ {
		pa2, _ := k.Translate(0, p2, va+addr.Virt(i)*addr.PageSize, true)
		if pa2.Page() == ppn {
			t.Fatalf("retired frame %v handed out again", ppn)
		}
	}
}

func TestPageDegradedRetires(t *testing.T) {
	k := testKernel(t, memctrl.SilentShredder, ZeroShred)
	p := k.NewProcess()
	pa, _ := k.Translate(0, p, addr.Virt(0x6000_0000), true)
	// The controller-facing FaultSink entry point.
	k.PageDegraded(pa.Page(), 8)
	if !k.retired[pa.Page()] {
		t.Fatal("PageDegraded did not retire the frame")
	}
}

func TestZeroPageRetirementRefused(t *testing.T) {
	k := testKernel(t, memctrl.SilentShredder, ZeroShred)
	k.RetirePage(k.zeroPPN)
	if k.retired[k.zeroPPN] || k.PagesRetired() != 0 {
		t.Fatal("the shared Zero Page must be immortal")
	}
}
