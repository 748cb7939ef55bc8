// The `experiments banks` sweep: bank/queue geometry under the banked
// drain-scheduler device model (PR 7's refactor; nvm/bank.go).
//
// The legacy figures run with the passive bank-penalty heuristic so their
// output stays byte-identical across releases. This sweep is where the
// new model is exercised: it varies banks-per-channel and per-bank queue
// depth under a zeroing-heavy workload and reports the contention
// signals the model adds — bank conflicts, full-queue drain stalls,
// read-around-writes, and queue occupancy. Fewer banks concentrate the
// same traffic onto fewer queues (more conflicts and stalls); Silent
// Shredder's eliminated zeroing writes empty the queues at the source,
// which is the paper's write-traffic argument restated in queueing
// terms.
package exper

import (
	"fmt"

	"silentshredder/internal/addr"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/sim"
	"silentshredder/internal/stats"
)

// BanksRow is one (geometry, personality) point of the banks sweep.
type BanksRow struct {
	Config        string
	BankConflicts uint64
	DrainStalls   uint64
	ReadArounds   uint64
	OccMean       float64
	MeanReadLat   float64
}

// banksGeometries is the swept geometry grid: banks per channel × queue
// depth. Small bank counts are deliberately pathological — they funnel
// every access into one or two queues.
var banksGeometries = []struct {
	banks, depth int
}{
	{1, 4},
	{1, 32},
	{4, 4},
	{4, 32},
	{16, 4},
	{16, 32},
}

// Banks runs the bank/queue geometry sweep. Every machine runs with the
// banked scheduler enabled.
func Banks(o Options) []BanksRow {
	o = o.normalized()
	pages := 1024
	if o.Quick {
		pages = 128
	}
	run := func(banks, depth int, label string, mode memctrl.Mode, zm kernel.ZeroMode) BanksRow {
		cfg := sim.ScaledConfig(mode, zm, o.Scale)
		cfg.Hier.Cores = 1
		cfg.StoreData = false
		cfg.MemPages = 1 << 16
		cfg.NVM.Banks = banks
		cfg.NVM.BankQueueDepth = depth
		if o.BankDrainBatch > 0 {
			cfg.NVM.BankDrainBatch = o.BankDrainBatch
		}
		m := sim.MustNew(cfg)
		rt := m.Runtime(0)
		// The AblationWQ traffic pattern: page allocations (zeroing
		// bursts in the baseline) interleaved with reads of older pages,
		// so reads meet banks with queued zeroing writes.
		va := rt.Malloc(pages * addr.PageSize)
		for p := 0; p < pages; p++ {
			rt.Store(va+addr.Virt(p*addr.PageSize), uint64(p)|1)
			if p > 16 {
				rt.Load(va + addr.Virt((p-16)*addr.PageSize))
			}
		}
		return BanksRow{
			Config:        fmt.Sprintf("%s banks=%d depth=%d", label, banks, depth),
			BankConflicts: m.Dev.BankConflicts(),
			DrainStalls:   m.Dev.DrainStalls(),
			ReadArounds:   m.Dev.ReadAroundWrites(),
			OccMean:       m.Dev.WQOccupancyHistogram().Mean(),
			MeanReadLat:   m.MC.MeanReadLatency(),
		}
	}
	personalities := []struct {
		label string
		mode  memctrl.Mode
		zm    kernel.ZeroMode
	}{
		{"baseline", memctrl.Baseline, kernel.ZeroNonTemporal},
		{"shredder", memctrl.SilentShredder, kernel.ZeroShred},
	}
	n := len(banksGeometries) * len(personalities)
	return runSweep(o, n, func(i int) BanksRow {
		g := banksGeometries[i/len(personalities)]
		pr := personalities[i%len(personalities)]
		return run(g.banks, g.depth, pr.label, pr.mode, pr.zm)
	})
}

// BanksTable formats the bank/queue geometry sweep.
func BanksTable(rows []BanksRow) *stats.Table {
	t := stats.NewTable(
		"Banked device: per-bank write queues under zeroing traffic (banks x depth)",
		"configuration", "bank_conflicts", "drain_stalls", "read_arounds", "occ_mean", "mean_read_lat_cy")
	for _, r := range rows {
		t.AddRow(r.Config, r.BankConflicts, r.DrainStalls, r.ReadArounds, r.OccMean, r.MeanReadLat)
	}
	return t
}
