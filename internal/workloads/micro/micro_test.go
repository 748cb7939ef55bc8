package micro

import (
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/apprt"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/sim"
)

func microRT(t *testing.T, mode memctrl.Mode, zm kernel.ZeroMode) *apprt.Runtime {
	t.Helper()
	cfg := sim.ScaledConfig(mode, zm, 128)
	cfg.Hier.Cores = 1
	cfg.MemPages = 1 << 16
	cfg.StoreData = false
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.Runtime(0)
}

func TestMemsetTwiceSplitsKernelTime(t *testing.T) {
	rt := microRT(t, memctrl.Baseline, kernel.ZeroNonTemporal)
	res := MemsetTwice(rt, 256*addr.PageSize)
	if res.FirstCycles <= res.SecondCycles {
		t.Fatalf("first memset (%d) must be slower than second (%d)",
			res.FirstCycles, res.SecondCycles)
	}
	if res.KernelZeroCycles == 0 || res.FaultCycles == 0 {
		t.Fatal("kernel time not attributed")
	}
	share := res.KernelZeroShare()
	if share <= 0.05 || share >= 0.95 {
		t.Fatalf("kernel zero share = %.2f, implausible", share)
	}
	// Kernel zeroing is part of fault time; fault time is part of the
	// first memset.
	if res.KernelZeroCycles > res.FaultCycles || res.FaultCycles > res.FirstCycles {
		t.Fatalf("time hierarchy violated: zero=%d fault=%d first=%d",
			res.KernelZeroCycles, res.FaultCycles, res.FirstCycles)
	}
}

func TestShredShrinksFirstMemsetGap(t *testing.T) {
	nt := MemsetTwice(microRT(t, memctrl.Baseline, kernel.ZeroNonTemporal), 128*addr.PageSize)
	ss := MemsetTwice(microRT(t, memctrl.SilentShredder, kernel.ZeroShred), 128*addr.PageSize)
	if ss.KernelZeroCycles >= nt.KernelZeroCycles {
		t.Fatalf("shred kernel time (%d) must be below non-temporal (%d)",
			ss.KernelZeroCycles, nt.KernelZeroCycles)
	}
	if ss.FirstCycles >= nt.FirstCycles {
		t.Fatalf("shred first memset (%d) must beat non-temporal (%d)",
			ss.FirstCycles, nt.FirstCycles)
	}
}

func TestKernelZeroShareZeroForEmptyResult(t *testing.T) {
	var r MemsetResult
	if r.KernelZeroShare() != 0 {
		t.Fatal("empty result share must be 0")
	}
}

func TestTouchPagesFaultsEachPage(t *testing.T) {
	rt := microRT(t, memctrl.SilentShredder, kernel.ZeroShred)
	TouchPages(rt, 10)
	if faults, _ := rt.Kernel().StatsSet().Get("page_faults"); faults != 10 {
		t.Fatalf("faults = %v", faults)
	}
}
