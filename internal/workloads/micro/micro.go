// Package micro contains the paper's motivation microbenchmarks.
//
// MemsetTwice is the §3 experiment behind Figure 4: allocate SIZE bytes,
// memset them twice, and split the first memset's time into kernel work
// (page faults + kernel zeroing) and program zeroing. The second memset —
// which faults nothing — is the paper's conservative proxy for kernel
// zeroing time.
package micro

import (
	"silentshredder/internal/addr"
	"silentshredder/internal/apprt"
	"silentshredder/internal/clock"
)

// MemsetResult is the timing split of the two memsets.
type MemsetResult struct {
	Size int

	// FirstCycles is the first memset's total time: page faults, kernel
	// zeroing, and program stores.
	FirstCycles clock.Cycles

	// SecondCycles is the second memset's time: program stores only.
	SecondCycles clock.Cycles

	// KernelZeroCycles is the portion of the first memset the kernel
	// spent clearing pages (measured, not inferred).
	KernelZeroCycles clock.Cycles

	// FaultCycles is total page-fault time (overhead + clearing).
	FaultCycles clock.Cycles
}

// KernelZeroShare returns the fraction of the first memset spent in
// kernel zeroing — the paper reports ~32% on average and cites up to 40%
// of page-fault time.
func (r MemsetResult) KernelZeroShare() float64 {
	if r.FirstCycles == 0 {
		return 0
	}
	return float64(r.KernelZeroCycles) / float64(r.FirstCycles)
}

// MemsetTwice runs the Figure 4 microbenchmark for the given size.
func MemsetTwice(rt *apprt.Runtime, size int) MemsetResult {
	k := rt.Kernel()
	core := rt.Core()

	va := rt.Malloc(size)

	zero0, fault0 := k.ZeroCycles(), k.FaultCycles()
	start := core.Cycles()
	rt.Memset(va, 0, size)
	mid := core.Cycles()
	rt.Memset(va, 0, size)
	end := core.Cycles()

	return MemsetResult{
		Size:             size,
		FirstCycles:      mid - start,
		SecondCycles:     end - mid,
		KernelZeroCycles: clock.Cycles(k.ZeroCycles() - zero0),
		FaultCycles:      clock.Cycles(k.FaultCycles() - fault0),
	}
}

// TouchPages allocates npages and dirties one block in each — the
// minimal workload that triggers one kernel page-clearing per page. It
// returns the virtual base.
func TouchPages(rt *apprt.Runtime, npages int) addr.Virt {
	va := rt.Malloc(npages * addr.PageSize)
	for i := 0; i < npages; i++ {
		rt.Store(va+addr.Virt(i*addr.PageSize), uint64(i)|1)
	}
	return va
}
