package hypervisor

import (
	"bytes"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/apprt"
	"silentshredder/internal/cpu"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/sim"
)

func hostMachine(t *testing.T, mode memctrl.Mode, zm kernel.ZeroMode) *sim.Machine {
	t.Helper()
	cfg := sim.ScaledConfig(mode, zm, 64)
	cfg.Hier.Cores = 2
	cfg.MemPages = 1 << 14
	cfg.VerifyPlaintext = true
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newHV(t *testing.T, m *sim.Machine, mode kernel.ZeroMode, batch int) *Hypervisor {
	t.Helper()
	cfg := DefaultConfig(mode)
	cfg.GrantBatch = batch
	return New(cfg, m.Hier, m.Source)
}

func TestGrantBatching(t *testing.T) {
	m := hostMachine(t, memctrl.SilentShredder, kernel.ZeroShred)
	hv := newHV(t, m, kernel.ZeroShred, 16)
	vm := hv.NewVM()
	p, ok := vm.AllocPage()
	if !ok {
		t.Fatal("alloc failed")
	}
	if hv.Grants() != 1 || hv.PagesGranted() != 16 {
		t.Fatalf("grants=%d pages=%d", hv.Grants(), hv.PagesGranted())
	}
	if vm.PoolSize() != 15 {
		t.Fatalf("pool = %d", vm.PoolSize())
	}
	if !vm.held[p] {
		t.Fatal("allocated page not tracked as held")
	}
	// Next 15 allocations must not trigger another grant.
	for i := 0; i < 15; i++ {
		if _, ok := vm.AllocPage(); !ok {
			t.Fatal("pool alloc failed")
		}
	}
	if hv.Grants() != 1 {
		t.Fatal("premature re-grant")
	}
	vm.AllocPage()
	if hv.Grants() != 2 {
		t.Fatal("pool exhaustion must re-grant")
	}
}

func TestHypervisorShredsOnGrant(t *testing.T) {
	m := hostMachine(t, memctrl.SilentShredder, kernel.ZeroShred)
	hv := newHV(t, m, kernel.ZeroShred, 8)
	vm := hv.NewVM()
	vm.AllocPage()
	if hv.PagesCleared() != 8 {
		t.Fatalf("cleared = %d, want 8", hv.PagesCleared())
	}
	if m.MC.ShredCommands() != 8 {
		t.Fatalf("shred commands = %d", m.MC.ShredCommands())
	}
	if m.MC.DataWrites() != 0 {
		t.Fatal("shred-mode hypervisor must not write data")
	}
}

func TestDuplicateShreddingFigure1(t *testing.T) {
	// Hypervisor shreds on grant; the guest kernel shreds again when a
	// guest process faults a page in. Both layers show up as shreds.
	m := hostMachine(t, memctrl.SilentShredder, kernel.ZeroShred)
	hv := newHV(t, m, kernel.ZeroShred, 4)
	vm := hv.NewVM()
	gk, err := hv.GuestKernel(vm, kernel.DefaultConfig(kernel.ZeroShred))
	if err != nil {
		t.Fatal(err)
	}
	proc := gk.NewProcess()
	rt := apprt.New(gk, 0, proc, cpu.New(0))
	va := rt.Malloc(2 * addr.PageSize)
	rt.Store(va, 1)
	rt.Store(va+addr.PageSize, 2)

	// Grant shredded 4 pages (batch) + guest kernel zero page setup and
	// 2 fault-time shreds: every allocated page was shredded twice
	// before use (once per layer).
	if got := m.MC.ShredCommands(); got < 6 {
		t.Fatalf("shred commands = %d, want >= 6 (duplicate shredding)", got)
	}
	if gk.PagesCleared() != 2 {
		t.Fatalf("guest cleared = %d", gk.PagesCleared())
	}
}

func TestInterVMIsolation(t *testing.T) {
	m := hostMachine(t, memctrl.SilentShredder, kernel.ZeroShred)
	hv := newHV(t, m, kernel.ZeroShred, 4)

	// VM A's guest process writes a secret.
	vmA := hv.NewVM()
	gkA, _ := hv.GuestKernel(vmA, kernel.DefaultConfig(kernel.ZeroShred))
	procA := gkA.NewProcess()
	rtA := apprt.New(gkA, 0, procA, cpu.New(0))
	vaA := rtA.Malloc(addr.PageSize)
	secret := []byte("VM-A-PRIVATE-KEY")
	rtA.StoreBytes(vaA, secret)
	hv.DestroyVM(vmA)

	// VM B receives the recycled pages.
	vmB := hv.NewVM()
	gkB, _ := hv.GuestKernel(vmB, kernel.DefaultConfig(kernel.ZeroShred))
	procB := gkB.NewProcess()
	rtB := apprt.New(gkB, 1, procB, cpu.New(1))
	vaB := rtB.Malloc(addr.PageSize)
	rtB.Store(vaB+512, 1) // fault the page in
	if got := rtB.LoadBytes(vaB, len(secret)); !bytes.Equal(got, make([]byte, len(secret))) {
		t.Fatalf("VM B read %q — inter-VM leak", got)
	}
}

func TestBallooning(t *testing.T) {
	m := hostMachine(t, memctrl.SilentShredder, kernel.ZeroShred)
	hv := newHV(t, m, kernel.ZeroShred, 8)
	vmA := hv.NewVM()
	vmA.AllocPage() // grant 8, use 1
	reclaimed := hv.Balloon(vmA, 4)
	if reclaimed != 4 || hv.Reclaims() != 1 {
		t.Fatalf("reclaimed = %d", reclaimed)
	}
	if vmA.PoolSize() != 3 {
		t.Fatalf("pool after balloon = %d", vmA.PoolSize())
	}
	// Ballooned pages flow to VM B, shredded again on grant.
	cleared := hv.PagesCleared()
	vmB := hv.NewVM()
	vmB.AllocPage()
	if hv.PagesCleared() <= cleared {
		t.Fatal("re-granted pages must be shredded again")
	}
}

func TestBalloonOnlyTakesFreePages(t *testing.T) {
	m := hostMachine(t, memctrl.SilentShredder, kernel.ZeroShred)
	hv := newHV(t, m, kernel.ZeroShred, 2)
	vm := hv.NewVM()
	vm.AllocPage()
	vm.AllocPage() // pool now empty, 2 pages in use
	if got := hv.Balloon(vm, 5); got != 0 {
		t.Fatalf("balloon reclaimed %d in-use pages", got)
	}
}

func TestExhaustedHostPool(t *testing.T) {
	m := hostMachine(t, memctrl.SilentShredder, kernel.ZeroShred)
	// Drain the host pool.
	for {
		if _, ok := m.Source.AllocPage(); !ok {
			break
		}
	}
	hv := newHV(t, m, kernel.ZeroShred, 4)
	vm := hv.NewVM()
	if _, ok := vm.AllocPage(); ok {
		t.Fatal("alloc from empty host must fail")
	}
}
