package kernel

import (
	"bytes"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/cache"
	"silentshredder/internal/hier"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/mmu"
	"silentshredder/internal/nvm"
	"silentshredder/internal/physmem"
)

func testHier(t *testing.T, mode memctrl.Mode) *hier.Hierarchy {
	t.Helper()
	dev := nvm.New(nvm.DefaultConfig())
	img := physmem.New(true)
	cfg := memctrl.DefaultConfig(mode)
	cfg.VerifyPlaintext = true
	mc, err := memctrl.New(cfg, dev, img)
	if err != nil {
		t.Fatal(err)
	}
	hcfg := hier.Config{
		Cores: 2,
		L1:    cache.Config{Name: "l1", Size: 4 << 10, Assoc: 4, HitLatency: 2},
		L2:    cache.Config{Name: "l2", Size: 16 << 10, Assoc: 4, HitLatency: 8},
		L3:    cache.Config{Name: "l3", Size: 64 << 10, Assoc: 8, HitLatency: 25},
		L4:    cache.Config{Name: "l4", Size: 256 << 10, Assoc: 8, HitLatency: 35},
	}
	return hier.New(hcfg, mc)
}

func testKernel(t *testing.T, mcMode memctrl.Mode, zmode ZeroMode) *Kernel {
	t.Helper()
	h := testHier(t, mcMode)
	k, err := New(zmode, h, NewLinearSource(0, 4096))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// write models a full store: translate, apply data, access hierarchy.
func write(k *Kernel, core int, p *Process, va addr.Virt, data []byte) {
	pa, _ := k.Translate(core, p, va, true)
	k.Hierarchy().Write(core, pa)          // allocate/fetch first...
	k.Controller().Image().Write(pa, data) // ...then apply the store
}

// read models a full load, returning the architectural bytes.
func read(k *Kernel, core int, p *Process, va addr.Virt, n int) []byte {
	pa, _ := k.Translate(core, p, va, false)
	k.Hierarchy().Read(core, pa)
	out := make([]byte, n)
	k.Controller().Image().Read(pa, out)
	return out
}

func TestZeroModeString(t *testing.T) {
	want := map[ZeroMode]string{
		ZeroTemporal: "temporal", ZeroNonTemporal: "non-temporal",
		ZeroShred: "shred", ZeroNone: "none", ZeroMode(99): "unknown",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
}

func TestShredModeRequiresSSController(t *testing.T) {
	h := testHier(t, memctrl.Baseline)
	if _, err := New(ZeroShred, h, NewLinearSource(0, 16)); err == nil {
		t.Fatal("want error pairing shred kernel with baseline controller")
	}
}

func TestLinearSource(t *testing.T) {
	s := NewLinearSource(10, 2)
	p1, ok1 := s.AllocPage()
	p2, ok2 := s.AllocPage()
	if !ok1 || !ok2 || p1 != 10 || p2 != 11 {
		t.Fatalf("alloc = %v/%v", p1, p2)
	}
	if _, ok := s.AllocPage(); ok {
		t.Fatal("exhausted source must fail")
	}
	s.FreePage(p1)
	if len(s.free) != 1 {
		t.Fatal("free list wrong")
	}
	p3, ok := s.AllocPage()
	if !ok || p3 != p1 {
		t.Fatal("LIFO reuse expected")
	}
}

// Munmap returns a written page's frame to the free list and drops its
// translation from every TLB; an untouched page in the range is skipped.
func TestMunmapFreesFramesAndFlushesTLBs(t *testing.T) {
	k := testKernel(t, memctrl.SilentShredder, ZeroShred)
	p := k.NewProcess()
	va := k.Mmap(p, 2)
	write(k, 0, p, va, []byte{1})
	read(k, 1, p, va, 1)
	pte, _ := p.AS.Lookup(va.Page())
	k.Munmap(p, va, 2)
	if _, ok := p.AS.Lookup(va.Page()); ok {
		t.Fatal("page still mapped after Munmap")
	}
	if n := len(k.src.(*LinearSource).free); n != 1 {
		t.Fatalf("free list holds %d frames, want the one written", n)
	}
	for core := 0; core < 2; core++ {
		if _, hit := k.TLB(core).Access(p.AS.ID, va.Page()); hit {
			t.Fatalf("core %d TLB still translates the unmapped page", core)
		}
	}
	// The next fault reuses the frame, shredded.
	q := k.NewProcess()
	vb := k.Mmap(q, 1)
	write(k, 0, q, vb, []byte{2})
	if got, _ := q.AS.Lookup(vb.Page()); got.PPN != pte.PPN {
		t.Fatalf("fault took frame %v, want the freed %v", got.PPN, pte.PPN)
	}
}

func TestReadOfUntouchedPageIsZeroAndAllocatesNothing(t *testing.T) {
	k := testKernel(t, memctrl.SilentShredder, ZeroShred)
	p := k.NewProcess()
	va := k.Mmap(p, 4)
	got := read(k, 0, p, va, 8)
	if !bytes.Equal(got, make([]byte, 8)) {
		t.Fatalf("untouched read = %v", got)
	}
	if k.pageFaults.Value() != 0 {
		t.Fatal("read must not allocate")
	}
	// Mapped to the shared Zero Page.
	pte, ok := p.AS.Lookup(va.Page())
	if !ok || !pte.ZeroPage || pte.PPN != k.ZeroPPN() {
		t.Fatalf("pte = %+v", pte)
	}
}

func TestFirstWriteFaultsAllocatesAndClears(t *testing.T) {
	k := testKernel(t, memctrl.SilentShredder, ZeroShred)
	p := k.NewProcess()
	va := k.Mmap(p, 1)
	write(k, 0, p, va, []byte{1, 2, 3})
	if k.pageFaults.Value() != 1 || k.PagesCleared() != 1 {
		t.Fatalf("faults/cleared = %d/%d", k.pageFaults.Value(), k.PagesCleared())
	}
	pte, _ := p.AS.Lookup(va.Page())
	if !pte.Writable || pte.ZeroPage {
		t.Fatalf("pte after fault = %+v", pte)
	}
	// Rest of the page reads as zeros (the shred zeroed it).
	if got := read(k, 0, p, va+100, 4); !bytes.Equal(got, make([]byte, 4)) {
		t.Fatalf("rest of page = %v", got)
	}
	if got := read(k, 0, p, va, 3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("written data = %v", got)
	}
}

func TestCOWUpgradeAfterRead(t *testing.T) {
	k := testKernel(t, memctrl.SilentShredder, ZeroShred)
	p := k.NewProcess()
	va := k.Mmap(p, 1)
	read(k, 0, p, va, 8)          // maps zero page
	write(k, 0, p, va, []byte{7}) // COW break
	if k.pageFaults.Value() != 1 {
		t.Fatalf("PageFaults = %d", k.pageFaults.Value())
	}
	if got := read(k, 0, p, va, 1); got[0] != 7 {
		t.Fatalf("after COW: %v", got)
	}
}

func TestShredKernelWritesNothingToNVM(t *testing.T) {
	k := testKernel(t, memctrl.SilentShredder, ZeroShred)
	p := k.NewProcess()
	va := k.Mmap(p, 8)
	for i := 0; i < 8; i++ {
		write(k, 0, p, va+addr.Virt(i*addr.PageSize), []byte{byte(i)})
	}
	if k.Controller().ZeroingWrites() != 0 {
		t.Fatal("shred mode must not issue zeroing writes")
	}
	if k.Controller().ShredCommands() != 8 {
		t.Fatalf("shreds = %d, want 8", k.Controller().ShredCommands())
	}
}

func TestNonTemporalKernelWrites64PerPage(t *testing.T) {
	k := testKernel(t, memctrl.Baseline, ZeroNonTemporal)
	p := k.NewProcess()
	va := k.Mmap(p, 4)
	for i := 0; i < 4; i++ {
		write(k, 0, p, va+addr.Virt(i*addr.PageSize), []byte{1})
	}
	if k.NTZeroWrites() != 256 {
		t.Fatalf("NTZeroWrites = %d, want 256", k.NTZeroWrites())
	}
	if k.Controller().ZeroingWrites() != 256 {
		t.Fatalf("controller zeroing writes = %d", k.Controller().ZeroingWrites())
	}
}

func TestTemporalZeroingPollutesCaches(t *testing.T) {
	k := testKernel(t, memctrl.Baseline, ZeroTemporal)
	p := k.NewProcess()
	va := k.Mmap(p, 2)
	write(k, 0, p, va, []byte{1})
	// Temporal zeroing write-allocates: NVM reads happened for the
	// zeroed blocks, and the L1 now holds zeroed blocks of the page.
	if k.Controller().DataReads() == 0 {
		t.Fatal("temporal zeroing must write-allocate (read NVM)")
	}
	if k.Controller().ZeroingWrites() != 0 {
		t.Fatal("temporal zeroing must not write NVM synchronously")
	}
}

func TestShredFasterThanZeroing(t *testing.T) {
	kSS := testKernel(t, memctrl.SilentShredder, ZeroShred)
	kNT := testKernel(t, memctrl.Baseline, ZeroNonTemporal)
	kT := testKernel(t, memctrl.Baseline, ZeroTemporal)
	ss := kSS.ClearPage(0, 100)
	nt := kNT.ClearPage(0, 100)
	tm := kT.ClearPage(0, 100)
	if ss >= nt {
		t.Fatalf("shred (%d) must beat non-temporal (%d)", ss, nt)
	}
	if nt >= tm {
		t.Fatalf("non-temporal (%d) must beat temporal (%d) on cold pages", nt, tm)
	}
}

func TestInterProcessIsolationWithShredding(t *testing.T) {
	for _, tc := range []struct {
		name string
		mc   memctrl.Mode
		zm   ZeroMode
	}{
		{"shred", memctrl.SilentShredder, ZeroShred},
		{"non-temporal", memctrl.Baseline, ZeroNonTemporal},
		{"temporal", memctrl.Baseline, ZeroTemporal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := testKernel(t, tc.mc, tc.zm)
			a := k.NewProcess()
			va := k.Mmap(a, 1)
			secret := []byte("TOP-SECRET-DATA!")
			write(k, 0, a, va, secret)
			k.ExitProcess(a)

			b := k.NewProcess()
			vb := k.Mmap(b, 1)
			write(k, 1, b, vb+512, []byte{1}) // forces fault on the recycled page
			got := read(k, 1, b, vb, len(secret))
			if !bytes.Equal(got, make([]byte, len(secret))) {
				t.Fatalf("process B read %q — data leak", got)
			}
		})
	}
}

func TestZeroNoneLeaksData(t *testing.T) {
	// The negative control: without shredding, page reuse leaks data.
	k := testKernel(t, memctrl.Baseline, ZeroNone)
	a := k.NewProcess()
	va := k.Mmap(a, 1)
	secret := []byte("TOP-SECRET-DATA!")
	write(k, 0, a, va, secret)
	k.ExitProcess(a)

	b := k.NewProcess()
	vb := k.Mmap(b, 1)
	write(k, 1, b, vb+512, []byte{1})
	got := read(k, 1, b, vb, len(secret))
	if !bytes.Equal(got, secret) {
		t.Fatalf("expected leak under ZeroNone, got %q", got)
	}
}

func TestExitFlushesTLB(t *testing.T) {
	k := testKernel(t, memctrl.SilentShredder, ZeroShred)
	p := k.NewProcess()
	va := k.Mmap(p, 1)
	write(k, 0, p, va, []byte{1})
	asid := p.AS.ID
	k.ExitProcess(p)
	if _, hit := k.TLB(0).Access(asid, va.Page()); hit {
		t.Fatal("stale TLB entry after exit")
	}
}

func TestShredRangeClearsMappedPages(t *testing.T) {
	k := testKernel(t, memctrl.SilentShredder, ZeroShred)
	p := k.NewProcess()
	va := k.Mmap(p, 4)
	write(k, 0, p, va, []byte("dirty"))
	cleared := k.PagesCleared()
	lat := k.ShredRange(0, p, va, 4)
	if lat == 0 {
		t.Fatal("shredding a mapped page must cost cycles")
	}
	// Only the one mapped page is cleared; untouched pages need nothing.
	if k.PagesCleared() != cleared+1 {
		t.Fatalf("PagesCleared delta = %d, want 1", k.PagesCleared()-cleared)
	}
	if got := read(k, 0, p, va, 5); !bytes.Equal(got, make([]byte, 5)) {
		t.Fatalf("after ShredRange: %v", got)
	}
}

func TestOOMFallsBackToZeroPage(t *testing.T) {
	h := testHier(t, memctrl.SilentShredder)
	k, err := New(ZeroShred, h, NewLinearSource(0, 2)) // 1 page after zero page
	if err != nil {
		t.Fatal(err)
	}
	p := k.NewProcess()
	va := k.Mmap(p, 2)
	write(k, 0, p, va, []byte{1})
	write(k, 0, p, va+addr.PageSize, []byte{2}) // OOM
	if k.oomEvents.Value() != 1 {
		t.Fatalf("OOMEvents = %d", k.oomEvents.Value())
	}
}

func TestTranslateChargesTLBWalk(t *testing.T) {
	k := testKernel(t, memctrl.SilentShredder, ZeroShred)
	p := k.NewProcess()
	va := k.Mmap(p, 1)
	read(k, 0, p, va, 1)
	_, lat := k.Translate(0, p, va, false)
	if lat != mmu.TLBHitLatency {
		t.Fatalf("warm translate lat = %d", lat)
	}
	_, lat = k.Translate(0, p, va+addr.PageSize, false)
	if lat < mmu.TLBWalkLatency {
		t.Fatalf("cold translate lat = %d, must include walk", lat)
	}
}

func TestStatsSet(t *testing.T) {
	k := testKernel(t, memctrl.SilentShredder, ZeroShred)
	p := k.NewProcess()
	write(k, 0, p, k.Mmap(p, 1), []byte{1})
	s := k.StatsSet()
	if v, ok := s.Get("page_faults"); !ok || v != 1 {
		t.Fatalf("page_faults = %v %v", v, ok)
	}
	if k.ZeroCycles() == 0 || k.FaultCycles() == 0 {
		t.Fatal("cycle accounting missing")
	}
}
