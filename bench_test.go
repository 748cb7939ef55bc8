// Package silentshredder's root benchmark harness: one testing.B
// benchmark per table and figure in the paper's evaluation, each
// reporting its headline metric via b.ReportMetric so that
//
//	go test -bench=. -benchmem
//
// regenerates the numbers EXPERIMENTS.md records. Benchmarks run the
// experiments at smoke scale (the exper.Options Quick mode); use
// cmd/experiments for the full-scale tables.
package silentshredder_test

import (
	"sync"
	"testing"

	"silentshredder/internal/exper"
	"silentshredder/internal/stats"
)

func benchOpts() exper.Options {
	return exper.Options{Cores: 2, Scale: 64, Quick: true}
}

// benchWorkloads is a representative subset spanning the write-savings
// spectrum (full sweeps belong to cmd/experiments).
var benchWorkloads = []string{"h264", "gcc", "mcf", "lbm", "pagerank"}

// The five comparison benchmarks (Fig 8-11 and the sweep itself) all
// report metrics off the same baseline-vs-Silent-Shredder sweep. The
// sweep is deterministic, so it runs once per `go test -bench` process;
// BenchmarkComparisonSweep is the one that times it.
var (
	cmpOnce    sync.Once
	cmpResults []exper.Result
)

func comparisonMetrics(b *testing.B) []exper.Result {
	b.Helper()
	cmpOnce.Do(func() { cmpResults = exper.CompareAll(benchOpts(), benchWorkloads) })
	if len(cmpResults) == 0 {
		b.Fatalf("CompareAll(%v) returned no results", benchWorkloads)
	}
	return cmpResults
}

// BenchmarkComparisonSweep times the full comparison sweep end to end —
// the simulator's hot path (every workload under both controller modes).
// DESIGN.md §8's end-to-end speedup is this benchmark at sweep scale.
func BenchmarkComparisonSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rs := exper.CompareAll(benchOpts(), benchWorkloads); len(rs) == 0 {
			b.Fatalf("CompareAll(%v) returned no results", benchWorkloads)
		}
	}
}

// BenchmarkTable2InitializationTechniques regenerates the measured
// Table 2 and reports Silent Shredder's per-page clear cost.
func BenchmarkTable2InitializationTechniques(b *testing.B) {
	var rows []exper.Table2Row
	for i := 0; i < b.N; i++ {
		rows = exper.Table2(benchOpts())
	}
	for _, r := range rows {
		switch r.Mechanism {
		case "Silent Shredder":
			b.ReportMetric(float64(r.ClearCycles), "shred_cycles/page")
			b.ReportMetric(float64(r.NVMWrites), "shred_nvm_writes/page")
		case "Non-temporal stores":
			b.ReportMetric(float64(r.ClearCycles), "nt_cycles/page")
		}
	}
}

// BenchmarkFig4MemsetKernelShare regenerates the §3 microbenchmark and
// reports the kernel-zeroing share of the first memset (paper: ~32%).
func BenchmarkFig4MemsetKernelShare(b *testing.B) {
	var points []exper.Fig4Point
	for i := 0; i < b.N; i++ {
		points = exper.Fig4(benchOpts(), nil)
	}
	if len(points) == 0 {
		b.Fatal("Fig4 returned no points")
	}
	b.ReportMetric(points[len(points)-1].KernelShare, "kernel_share")
}

// BenchmarkFig5ZeroingWriteShare regenerates the motivation experiment
// and reports how much of the graph workloads' write traffic kernel
// zeroing causes.
func BenchmarkFig5ZeroingWriteShare(b *testing.B) {
	var rows []exper.Fig5Row
	for i := 0; i < b.N; i++ {
		rows = exper.Fig5(benchOpts())
	}
	var ks []float64
	for _, r := range rows {
		ks = append(ks, r.KernelZeroShare)
	}
	b.ReportMetric(stats.ArithMean(ks), "kernel_zero_write_share")
}

// BenchmarkFig8WriteSavings reports the average main-memory write
// savings (paper: 48.6%).
func BenchmarkFig8WriteSavings(b *testing.B) {
	results := comparisonMetrics(b)
	var m float64
	for i := 0; i < b.N; i++ {
		var ws []float64
		for _, r := range results {
			ws = append(ws, r.WriteSavings)
		}
		m = stats.ArithMean(ws)
	}
	b.ReportMetric(m, "write_savings")
}

// BenchmarkFig9ReadSavings reports the average read-traffic savings
// (paper: 50.3%).
func BenchmarkFig9ReadSavings(b *testing.B) {
	results := comparisonMetrics(b)
	var m float64
	for i := 0; i < b.N; i++ {
		var rs []float64
		for _, r := range results {
			rs = append(rs, r.ReadSavings)
		}
		m = stats.ArithMean(rs)
	}
	b.ReportMetric(m, "read_savings")
}

// BenchmarkFig10ReadSpeedup reports the mean main-memory read speedup
// (paper: 3.3x).
func BenchmarkFig10ReadSpeedup(b *testing.B) {
	results := comparisonMetrics(b)
	var m float64
	for i := 0; i < b.N; i++ {
		var sp []float64
		for _, r := range results {
			sp = append(sp, r.ReadSpeedup)
		}
		m = stats.GeoMean(sp)
	}
	b.ReportMetric(m, "read_speedup")
}

// BenchmarkFig11RelativeIPC reports the mean relative IPC (paper: 1.064).
func BenchmarkFig11RelativeIPC(b *testing.B) {
	results := comparisonMetrics(b)
	var m float64
	for i := 0; i < b.N; i++ {
		var rel []float64
		for _, r := range results {
			rel = append(rel, r.RelativeIPC)
		}
		m = stats.GeoMean(rel)
	}
	b.ReportMetric(m, "relative_ipc")
}

// BenchmarkFig12CounterCacheSweep reports the miss-rate drop across the
// counter-cache size sweep (the Figure 12 knee).
func BenchmarkFig12CounterCacheSweep(b *testing.B) {
	var points []exper.Fig12Point
	for i := 0; i < b.N; i++ {
		points = exper.Fig12(benchOpts(), nil)
	}
	if len(points) == 0 {
		b.Fatal("Fig12 returned no points")
	}
	b.ReportMetric(points[0].MissRate, "miss_rate_smallest")
	b.ReportMetric(points[len(points)-1].MissRate, "miss_rate_largest")
}

// BenchmarkAblationIV reports the re-encryptions the rejected option-one
// encoding incurs (Silent Shredder's encoding incurs zero).
func BenchmarkAblationIV(b *testing.B) {
	var rows []exper.AblationIVRow
	for i := 0; i < b.N; i++ {
		rows = exper.AblationIV(benchOpts())
	}
	for _, r := range rows {
		if r.Option == "inc-minors" {
			b.ReportMetric(float64(r.Reencryptions), "inc_minors_reencryptions")
		}
	}
}

// BenchmarkAblationDCW reports cells programmed per write with and
// without encryption under DCW (the diffusion effect).
func BenchmarkAblationDCW(b *testing.B) {
	var rows []exper.AblationDCWRow
	for i := 0; i < b.N; i++ {
		rows = exper.AblationDCW(benchOpts())
	}
	for _, r := range rows {
		switch r.Config {
		case "plaintext + DCW":
			b.ReportMetric(r.FlipsPerWrite, "plain_dcw_flips")
		case "encrypted + DCW":
			b.ReportMetric(r.FlipsPerWrite, "enc_dcw_flips")
		}
	}
}

// BenchmarkAblationMerkle reports the IPC ratio with counter
// authentication enabled (paper ballpark: ~2% overhead).
func BenchmarkAblationMerkle(b *testing.B) {
	var rows []exper.AblationMerkleRow
	for i := 0; i < b.N; i++ {
		rows = exper.AblationMerkle(benchOpts())
	}
	if len(rows) == 2 && rows[0].IPC > 0 {
		b.ReportMetric(rows[1].IPC/rows[0].IPC, "ipc_ratio_with_merkle")
	}
}

// BenchmarkAblationWT reports the counter-write amplification of a
// write-through counter cache.
func BenchmarkAblationWT(b *testing.B) {
	var rows []exper.AblationWTRow
	for i := 0; i < b.N; i++ {
		rows = exper.AblationWT(benchOpts())
	}
	if len(rows) == 2 && rows[0].CtrNVMWrites > 0 {
		b.ReportMetric(float64(rows[1].CtrNVMWrites)/float64(rows[0].CtrNVMWrites), "ctr_write_amplification")
	}
}
