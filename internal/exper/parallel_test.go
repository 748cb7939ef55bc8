package exper

import (
	"bytes"
	"sync/atomic"
	"testing"

	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
)

func TestRunIndexedPreservesOrder(t *testing.T) {
	for _, parallel := range []int{1, 2, 4, 16} {
		got := RunIndexed(parallel, 9, func(i int) int { return i * i })
		if len(got) != 9 {
			t.Fatalf("parallel=%d: len = %d", parallel, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallel=%d: out[%d] = %d, want %d", parallel, i, v, i*i)
			}
		}
	}
}

func TestRunIndexedRunsEveryJobOnce(t *testing.T) {
	var calls [32]int32
	RunIndexed(5, len(calls), func(i int) struct{} {
		atomic.AddInt32(&calls[i], 1)
		return struct{}{}
	})
	for i, c := range calls {
		if c != 1 {
			t.Fatalf("job %d ran %d times", i, c)
		}
	}
}

func TestRunIndexedEdgeCases(t *testing.T) {
	if got := RunIndexed(4, 0, func(i int) int { return i }); got != nil {
		t.Fatalf("n=0 must return nil, got %v", got)
	}
	// parallel larger than n, parallel zero/negative: all must behave.
	for _, parallel := range []int{-1, 0, 100} {
		got := RunIndexed(parallel, 3, func(i int) int { return i + 1 })
		if len(got) != 3 || got[0] != 1 || got[2] != 3 {
			t.Fatalf("parallel=%d: got %v", parallel, got)
		}
	}
}

// A panicking job must crash the sweep in the caller's goroutine (as the
// sequential loop would), not kill the process from a worker; with several
// failures the lowest-indexed one wins, so the reported failure does not
// depend on scheduling.
func TestRunIndexedPropagatesPanicDeterministically(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		func() {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatalf("parallel=%d: panic not propagated", parallel)
				}
				if p != "boom-2" {
					t.Fatalf("parallel=%d: propagated %v, want the lowest-indexed panic boom-2", parallel, p)
				}
			}()
			RunIndexed(parallel, 8, func(i int) int {
				if i == 2 || i == 6 {
					panic("boom-" + string(rune('0'+i)))
				}
				return i
			})
		}()
	}
}

// The determinism contract of the sweep engine: the same sweep run with
// -parallel 1 and -parallel 4 must produce byte-identical tables and
// exports. This is what lets the harness scale figure reproduction across
// cores without invalidating comparisons against recorded runs.
func TestParallelComparisonByteIdentical(t *testing.T) {
	names := []string{"gcc", "hmmer", "pagerank"}
	seqO := quickOpts()
	seqO.Parallel = 1
	parO := quickOpts()
	parO.Parallel = 4

	seq := CompareAll(seqO, names)
	par := CompareAll(parO, names)

	seqCSV, err := ResultsCSV(seq)
	if err != nil {
		t.Fatal(err)
	}
	parCSV, err := ResultsCSV(par)
	if err != nil {
		t.Fatal(err)
	}
	if seqCSV != parCSV {
		t.Errorf("CSV export differs between -parallel 1 and -parallel 4:\n--- seq\n%s\n--- par\n%s", seqCSV, parCSV)
	}

	seqJSON, err := ResultsJSON(seq)
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := ResultsJSON(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Error("JSON export differs between -parallel 1 and -parallel 4")
	}

	for i, tbl := range []struct{ seq, par string }{
		{Fig8Table(seq).String(), Fig8Table(par).String()},
		{Fig9Table(seq).String(), Fig9Table(par).String()},
		{Fig10Table(seq).String(), Fig10Table(par).String()},
		{Fig11Table(seq).String(), Fig11Table(par).String()},
		{EnergyTable(seq).String(), EnergyTable(par).String()},
	} {
		if tbl.seq != tbl.par {
			t.Errorf("table %d differs between -parallel 1 and -parallel 4:\n--- seq\n%s\n--- par\n%s", i, tbl.seq, tbl.par)
		}
	}
}

// The non-comparison sweeps (figure machines and ablations) must be
// deterministic under parallelism too.
func TestParallelSweepsByteIdentical(t *testing.T) {
	seqO := quickOpts()
	seqO.Parallel = 1
	parO := quickOpts()
	parO.Parallel = 4

	sizes := []int{1 << 20, 2 << 20}
	if seq, par := Fig4Table(Fig4(seqO, sizes)).String(), Fig4Table(Fig4(parO, sizes)).String(); seq != par {
		t.Errorf("Fig4 differs:\n--- seq\n%s\n--- par\n%s", seq, par)
	}
	if seq, par := AblationWTTable(AblationWT(seqO)).String(), AblationWTTable(AblationWT(parO)).String(); seq != par {
		t.Errorf("AblationWT differs:\n--- seq\n%s\n--- par\n%s", seq, par)
	}
	if seq, par := AblationIVTable(AblationIV(seqO)).String(), AblationIVTable(AblationIV(parO)).String(); seq != par {
		t.Errorf("AblationIV differs:\n--- seq\n%s\n--- par\n%s", seq, par)
	}
}

// An unknown workload anywhere in the list must fail fast in the caller's
// goroutine before any simulation runs, parallel or not.
func TestCompareAllUnknownWorkloadPanics(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("parallel=%d: want panic for unknown workload", parallel)
				}
			}()
			o := quickOpts()
			o.Parallel = parallel
			CompareAll(o, []string{"gcc", "not-a-benchmark"})
		}()
	}
}

// A panic inside one core's instance reaches runConcurrent's caller once
// every instance has finished, instead of killing the process from the
// instance's goroutine.
func TestRunConcurrentReraisesInstancePanic(t *testing.T) {
	o := quickOpts()
	m := machineFor(o, "gcc", memctrl.SilentShredder, kernel.ZeroShred)
	defer func() {
		if p := recover(); p != `exper: unknown workload "not-a-benchmark"` {
			t.Fatalf("recovered %v, want the instance's unknown-workload panic", p)
		}
	}()
	runConcurrent(o, m, "not-a-benchmark")
}
