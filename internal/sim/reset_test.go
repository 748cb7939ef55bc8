package sim

import (
	"strings"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/fault"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
)

// resetExempt lists the registered stats that legitimately survive a
// measurement-phase ResetStats: physical state (device wear), not access
// accounting. Everything else in the registry must read exactly zero
// after a reset — the table-driven sweep below catches any counter a
// component adds but forgets to wire into its ResetStats (the bug class
// that previously left kernel.huge_faults and the per-core TLB counters
// carrying warmup values into the measured phase).
var resetExempt = map[string]bool{
	"nvm.max_wear": true, // wear is physical state; reset keeps it by design
}

// dirtyMachine runs enough varied work that every subsystem has nonzero
// statistics: page faults (incl. a huge page and a CoW upgrade), cache
// and counter-cache traffic, shreds, TLB activity.
func dirtyMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m := MustNew(cfg)
	rt := m.Runtime(0)
	va := rt.Malloc(64 * addr.PageSize)
	for i := 0; i < 64; i++ {
		rt.Store(va+addr.Virt(i*addr.PageSize), uint64(i)+1)
	}
	for i := 0; i < 64*addr.BlocksPerPage; i++ {
		rt.Load(va + addr.Virt(i*addr.BlockSize))
	}
	// Zero-page CoW: read first (maps the shared zero page), then write.
	va2 := rt.Malloc(4 * addr.PageSize)
	rt.Load(va2)
	rt.Store(va2, 99)
	hv := m.Kernel.MmapHuge(rt.Process(), 1)
	rt.Store(hv, 7)
	rt.Free(va, 64*addr.PageSize)
	m.Hier.FlushAll()
	m.MC.Flush()
	return m
}

func checkResetAll(t *testing.T, m *Machine) {
	t.Helper()
	// Sanity: the run must actually have produced nonzero stats, or the
	// reset assertion is vacuous.
	dirty := 0
	for _, set := range m.Registry().Sets() {
		for _, name := range set.Names() {
			if v, _ := set.Get(name); v != 0 {
				dirty++
			}
		}
	}
	if dirty < 10 {
		t.Fatalf("workload left only %d nonzero stats; not a representative dirty machine", dirty)
	}

	m.ResetStats()

	for _, set := range m.Registry().Sets() {
		for _, name := range set.Names() {
			path := set.Name() + "." + name
			if resetExempt[path] {
				continue
			}
			if v, _ := set.Get(name); v != 0 {
				t.Errorf("%s = %g after ResetStats, want 0", path, v)
			}
		}
	}
}

func TestResetStatsZeroesEveryRegisteredStat(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"default", func() Config {
			return testConfig(memctrl.SilentShredder, kernel.ZeroShred)
		}},
		{"baseline", func() Config {
			return testConfig(memctrl.Baseline, kernel.ZeroNonTemporal)
		}},
		{"banked", func() Config {
			// Banked drain-scheduler device: the per-bank stats
			// (wq_enqueued, wq_drained, drain stalls, occupancy
			// histogram funcs) must zero like everything else, and the
			// per-bank queues/busy timestamps must clear the same way
			// mc.writeQueue does.
			cfg := testConfig(memctrl.SilentShredder, kernel.ZeroShred)
			cfg.NVM.Banks = 4
			cfg.NVM.BankQueueDepth = 4
			return cfg
		}},
		{"banked-baseline", func() Config {
			cfg := testConfig(memctrl.Baseline, kernel.ZeroNonTemporal)
			cfg.NVM.Banks = 1 // pathological: all traffic on one queue per channel
			cfg.NVM.BankQueueDepth = 2
			return cfg
		}},
		{"faulty", func() Config {
			cfg := testConfig(memctrl.SilentShredder, kernel.ZeroShred)
			cfg.VerifyPlaintext = false // faults legitimately corrupt data
			cfg.Faults = fault.Config{
				Seed:          7,
				StuckPerWrite: 1e-3,
				ReadFlip:      1e-3,
				DropWrite:     1e-3,
			}
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkResetAll(t, dirtyMachine(t, tc.cfg()))
		})
	}
}

// TestResetStatsKeepsTranslationsAndContents pins the contract that
// ResetStats is a measurement boundary, not a machine reset: memory
// contents and TLB residency survive, only accounting clears.
func TestResetStatsKeepsTranslationsAndContents(t *testing.T) {
	m := MustNew(testConfig(memctrl.SilentShredder, kernel.ZeroShred))
	rt := m.Runtime(0)
	va := rt.Malloc(addr.PageSize)
	rt.Store(va, 0xdeadbeef)
	m.ResetStats()
	if got := rt.Load(va); got != 0xdeadbeef {
		t.Fatalf("load after reset = %#x", got)
	}
	// The post-reset load hits the TLB entry installed before the reset:
	// exactly one access, zero walks.
	tlb := m.Kernel.TLB(0)
	if tlb.Hits() != 1 || tlb.Misses() != 0 {
		t.Fatalf("tlb after reset: hits=%d misses=%d, want 1/0 (residency must survive)", tlb.Hits(), tlb.Misses())
	}
}

// TestRegistryPathsStable guards the stat paths the epoch exporter's
// default columns depend on (obscli.DefaultColumns): renaming one would
// silently flatline the exported series.
func TestRegistryPathsStable(t *testing.T) {
	m := MustNew(testConfig(memctrl.SilentShredder, kernel.ZeroShred))
	reg := m.Registry()
	for _, path := range []string{
		"memctrl.shred_commands",
		"memctrl.writes_avoided",
		"memctrl.zero_fill_reads",
		"ctrcache.hits",
		"ctrcache.misses",
		"nvm.writes",
		"kernel.page_faults",
	} {
		if _, ok := reg.Lookup(path); !ok {
			t.Errorf("registry path %q missing", path)
		}
	}
	// lines_retired is conditional on ECC; make sure the default machine
	// does NOT register it (dump stability) …
	if _, ok := reg.Lookup("memctrl.lines_retired"); ok {
		t.Error("memctrl.lines_retired registered on a perfect-device machine")
	}
	// … and a faulty machine does.
	cfg := testConfig(memctrl.SilentShredder, kernel.ZeroShred)
	cfg.VerifyPlaintext = false
	cfg.Faults = fault.Config{Seed: 1, StuckPerWrite: 1e-4}
	fm := MustNew(cfg)
	if _, ok := fm.Registry().Lookup("memctrl.lines_retired"); !ok {
		t.Error("memctrl.lines_retired missing on an ECC machine")
	}
	// Dump must not mention obs anywhere: observability adds no stats.
	if s := fm.Registry().Dump(); strings.Contains(s, "obs") {
		t.Errorf("registry dump mentions obs:\n%s", s)
	}
	// Banked-model stats are conditional on BankQueueDepth the same way
	// ECC stats are conditional on faults: absent on the default machine
	// (dump stability) …
	if _, ok := reg.Lookup("nvm.wq_enqueued"); ok {
		t.Error("nvm.wq_enqueued registered on a legacy-model machine")
	}
	// … and present once the banked scheduler is enabled.
	bcfg := testConfig(memctrl.SilentShredder, kernel.ZeroShred)
	bcfg.NVM.BankQueueDepth = 8
	bm := MustNew(bcfg)
	for _, path := range []string{
		"nvm.wq_enqueued", "nvm.wq_drained", "nvm.wq_drain_stalls",
		"nvm.read_around_writes", "nvm.wq_occupancy_mean",
		"nvm.wq_occupancy_max", "nvm.wq_occupancy_p99",
	} {
		if _, ok := bm.Registry().Lookup(path); !ok {
			t.Errorf("registry path %q missing on a banked-model machine", path)
		}
	}
}
