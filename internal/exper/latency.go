// The `experiments latency` sweep: where do shredding cycles go?
//
// Both configurations run the same page-churn loop — allocate a batch
// of pages, fault and scan them, free them so the next round's faults
// recycle (and therefore re-clear) the same frames — under the span
// recorder, and the figure is the per-op latency breakdown by layer.
// It is the provenance form of the paper's headline: the baseline's
// page clear (`zero` rows) pays 64 encrypted device writes per page,
// so its cycles sit in the pad and device columns, while Silent
// Shredder's clear (`shred` rows) collapses to counter-cache and
// integrity-tree work — no device writes at all.
package exper

import (
	"fmt"

	"silentshredder/internal/addr"
	"silentshredder/internal/integrity"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/sim"
	"silentshredder/internal/span"
	"silentshredder/internal/stats"
)

// LatencyRow is one configuration's span aggregate over the shared
// churn workload.
type LatencyRow struct {
	Config string
	// Agg is the run's full attribution aggregate (per-op counts,
	// cycles, per-layer segments, histograms).
	Agg *span.Agg
	// Dropped is the recorder's ring-wrap count. The sweep sizes the
	// ring to hold every span; a non-zero value is surfaced as an error
	// by LatencySweep rather than silently truncating the figure.
	Dropped uint64
}

// latencyConfigs is the swept pair: the secure baseline clearing pages
// with non-temporal stores versus Silent Shredder's counter-only shred.
var latencyConfigs = []struct {
	name string
	mode memctrl.Mode
	zero kernel.ZeroMode
}{
	{"baseline-ntzero", memctrl.Baseline, kernel.ZeroNonTemporal},
	{"silent-shredder", memctrl.SilentShredder, kernel.ZeroShred},
}

// latencyRun executes the churn workload on one configuration with a
// private span recorder attached.
func latencyRun(o Options, name string, mode memctrl.Mode, zm kernel.ZeroMode) LatencyRow {
	// One recorder per run, sized so the workload can never wrap it:
	// the breakdown must cover every operation, not a recent window.
	rec := span.NewRecorder(span.Config{RingCap: span.DefaultRingCap})
	cfg := sim.ScaledConfig(mode, zm, o.Scale)
	cfg.Hier.Cores = 1
	cfg.MemPages = 8192
	cfg.StoreData = true
	cfg.Spans = rec
	cfg.MemCtrl.Integrity = true
	cfg.MemCtrl.IntegrityCfg = integrity.Config{
		Depth:        merkleDepth,
		CachedLevels: merkleCached,
		HashLatency:  40,
	}
	// Undersized counter cache, as in the merkle sweep: the churn
	// footprint must force counter misses so the shred rows show their
	// real counter-fetch cost instead of an always-hot cache.
	cfg.MemCtrl.CounterCache.Size = 4 << 10
	o.applyMachine(&cfg)
	m := sim.MustNew(cfg)
	rt := m.Runtime(0)

	rounds, npages := 6, 32
	if o.Quick {
		rounds, npages = 3, 16
	}
	for r := 0; r < rounds; r++ {
		va := rt.Malloc(npages * addr.PageSize)
		for i := 0; i < npages; i++ {
			// First touch faults the page in — that fault is where the
			// clear (zero or shred) happens and where the figure's
			// signal comes from.
			rt.Store(va+addr.Virt(i*addr.PageSize), uint64(r)<<32|uint64(i+1))
		}
		for i := 0; i < npages*addr.BlocksPerPage; i += 4 {
			rt.Load(va + addr.Virt(i*addr.BlockSize))
		}
		// Freeing recycles the frames: next round's faults re-clear
		// them, so every round after the first measures steady-state
		// shredding, not cold allocation.
		rt.Free(va, npages*addr.PageSize)
	}
	m.Hier.FlushAll()
	m.MC.Flush()
	return LatencyRow{Config: name, Agg: rec.Aggregate(), Dropped: rec.Dropped()}
}

// LatencySweep runs the churn workload under both configurations. Runs
// fan out across the sweep worker pool; rows come back in config order
// regardless of which worker finished first, so output is
// byte-identical for any -parallel value.
func LatencySweep(o Options) ([]LatencyRow, error) {
	rows := runSweep(o, len(latencyConfigs), func(i int) LatencyRow {
		c := latencyConfigs[i]
		return latencyRun(o, c.name, c.mode, c.zero)
	})
	for _, r := range rows {
		if r.Dropped > 0 {
			return nil, fmt.Errorf("exper: latency sweep span ring wrapped on %s (%d spans dropped); the breakdown would undercount — raise span.Config.RingCap in latencyRun", r.Config, r.Dropped)
		}
	}
	return rows, nil
}

// LatencyTable renders the sweep as mean cycles per operation, split by
// attributed layer. The final column is the unattributed remainder
// (kernel bookkeeping, TLB shootdowns, controller glue). Layer columns
// may sum past `mean` for rows whose layers overlap in time — segments
// are busy cycles, the mean is the critical path.
func LatencyTable(rows []LatencyRow) *stats.Table {
	headers := []string{"config", "op", "count", "mean"}
	for l := span.Layer(0); l < span.LayerCount; l++ {
		headers = append(headers, l.String())
	}
	headers = append(headers, "other")
	t := stats.NewTable("Latency provenance: mean cycles per op, by layer", headers...)
	for _, r := range rows {
		for op := span.Op(0); op < span.OpCount; op++ {
			a := &r.Agg.Total[op]
			if a.Count == 0 {
				continue
			}
			n := float64(a.Count)
			cells := []any{r.Config, op.String(), a.Count, float64(a.Cycles) / n}
			for l := span.Layer(0); l < span.LayerCount; l++ {
				cells = append(cells, float64(a.Seg[l])/n)
			}
			cells = append(cells, float64(a.Other())/n)
			t.AddRow(cells...)
		}
	}
	return t
}
