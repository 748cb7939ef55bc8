package sim

import (
	"bytes"
	"strings"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/fault"
	"silentshredder/internal/hier"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
)

func testConfig(mode memctrl.Mode, zm kernel.ZeroMode) Config {
	cfg := ScaledConfig(mode, zm, 64)
	cfg.Hier.Cores = 2
	cfg.MemPages = 8192
	cfg.VerifyPlaintext = true
	return cfg
}

func TestTable1ConfigShape(t *testing.T) {
	cfg := Table1Config(memctrl.SilentShredder, kernel.ZeroShred)
	if cfg.Hier.Cores != 8 {
		t.Fatalf("cores = %d", cfg.Hier.Cores)
	}
	if cfg.Hier.L4.Size != 64<<20 {
		t.Fatalf("L4 = %d", cfg.Hier.L4.Size)
	}
	if cfg.MemCtrl.CounterCache.Size != 4<<20 {
		t.Fatalf("counter cache = %d", cfg.MemCtrl.CounterCache.Size)
	}
}

func TestScaledConfigFloors(t *testing.T) {
	cfg := ScaledConfig(memctrl.Baseline, kernel.ZeroNonTemporal, 1<<30)
	if cfg.Hier.L1.Size < cfg.Hier.L1.Assoc*64 {
		t.Fatal("L1 scaled below one set")
	}
	if cfg.MemCtrl.CounterCache.Size < 4096 {
		t.Fatal("counter cache scaled below floor")
	}
	if got := ScaledConfig(memctrl.Baseline, kernel.ZeroNone, 0); got.Hier.L1.Size != 64<<10 {
		t.Fatal("scale<1 must behave as 1")
	}
}

// Every power-of-two scale from 1 to 128 leaves every cache with a
// buildable geometry; every other scale in that range does not, and
// New reports it as an error instead of panicking inside cache.New.
func TestValidateCachesScales(t *testing.T) {
	for scale := 1; scale <= 128; scale++ {
		cfg := ScaledConfig(memctrl.SilentShredder, kernel.ZeroShred, scale)
		err := cfg.Validate()
		if pow2 := scale&(scale-1) == 0; (err == nil) != pow2 {
			t.Errorf("scale %d: Validate() = %v, want ok=%v", scale, err, pow2)
		}
		if err == nil {
			continue
		}
		cfg.Hier.Cores = 1
		cfg.MemPages = 64
		if _, err := New(cfg); err == nil {
			t.Errorf("scale %d: New accepted a geometry Validate rejects", scale)
		}
	}
}

// New returns an error, rather than panicking inside hier.New, for a
// core count outside 1 to hier.MaxCores.
func TestNewRejectsCoreCount(t *testing.T) {
	for _, cores := range []int{-1, 0, 1, hier.MaxCores, hier.MaxCores + 1, 64} {
		cfg := ScaledConfig(memctrl.SilentShredder, kernel.ZeroShred, 64)
		cfg.Hier.Cores = cores
		cfg.MemPages = 64
		want := cores >= 1 && cores <= hier.MaxCores
		if err := cfg.Validate(); (err == nil) != want {
			t.Errorf("cores %d: Validate() = %v, want ok=%v", cores, err, want)
		}
		if _, err := New(cfg); (err == nil) != want {
			t.Errorf("cores %d: New error = %v, want ok=%v", cores, err, want)
		}
	}
}

func TestMachineEndToEnd(t *testing.T) {
	m := MustNew(testConfig(memctrl.SilentShredder, kernel.ZeroShred))
	rt := m.Runtime(0)
	va := rt.Malloc(64 << 10)
	rt.StoreBytes(va, []byte("hello world"))
	got := rt.LoadBytes(va, 11)
	if !bytes.Equal(got, []byte("hello world")) {
		t.Fatalf("round trip = %q", got)
	}
	if v, _ := m.Snapshot().Lookup("kernel.page_faults"); v == 0 {
		t.Fatal("first touch must fault")
	}
	if m.TotalInstructions() == 0 || m.MaxCycles() == 0 {
		t.Fatal("timing not accounted")
	}
	if ipc := m.AggregateIPC(); ipc <= 0 || ipc > 1 {
		t.Fatalf("IPC = %v", ipc)
	}
}

func TestTwoCoresIsolatedProcesses(t *testing.T) {
	m := MustNew(testConfig(memctrl.SilentShredder, kernel.ZeroShred))
	rt0, rt1 := m.Runtime(0), m.Runtime(1)
	va0 := rt0.Malloc(addr.PageSize)
	va1 := rt1.Malloc(addr.PageSize)
	rt0.Store(va0, 111)
	rt1.Store(va1, 222)
	if rt0.Load(va0) != 111 || rt1.Load(va1) != 222 {
		t.Fatal("per-process data corrupted")
	}
}

func TestMemsetSelectsNonTemporalForLargeRegions(t *testing.T) {
	m := MustNew(testConfig(memctrl.Baseline, kernel.ZeroNonTemporal))
	rt := m.Runtime(0)
	big := m.Cfg.Hier.L4.Size * 2
	va := rt.Malloc(big)
	writesBefore := m.MC.DataWrites()
	rt.Memset(va, 0xAA, big)
	// NT stores write straight to NVM: data writes beyond zeroing.
	if m.MC.DataWrites() == writesBefore {
		t.Fatal("large memset must use non-temporal stores")
	}
	got := rt.LoadBytes(va+12345, 4)
	if !bytes.Equal(got, []byte{0xAA, 0xAA, 0xAA, 0xAA}) {
		t.Fatalf("memset contents = %v", got)
	}
}

func TestShredMachineAvoidsZeroWrites(t *testing.T) {
	ss := MustNew(testConfig(memctrl.SilentShredder, kernel.ZeroShred))
	bl := MustNew(testConfig(memctrl.Baseline, kernel.ZeroNonTemporal))

	run := func(m *Machine) uint64 {
		rt := m.Runtime(0)
		va := rt.Malloc(64 * addr.PageSize)
		for i := 0; i < 64; i++ {
			rt.Store(va+addr.Virt(i*addr.PageSize), uint64(i))
		}
		m.Hier.FlushAll()
		m.MC.Flush()
		return m.Dev.Writes()
	}
	ssWrites, blWrites := run(ss), run(bl)
	if ssWrites*2 >= blWrites {
		t.Fatalf("SS writes %d vs baseline %d: expected large savings", ssWrites, blWrites)
	}
}

func TestRegistryExposesComponents(t *testing.T) {
	m := MustNew(testConfig(memctrl.SilentShredder, kernel.ZeroShred))
	rt := m.Runtime(0)
	rt.Store(rt.Malloc(addr.PageSize), 1)
	snap := m.Snapshot()
	for _, path := range []string{
		"core0.instructions", "memctrl.shred_commands", "kernel.page_faults",
		"nvm.writes", "ctrcache.misses", "hier.llc_misses", "tlb0.misses",
	} {
		if _, ok := snap.Lookup(path); !ok {
			t.Errorf("registry missing %s", path)
		}
	}
}

func TestShredRangeSyscallThroughRuntime(t *testing.T) {
	m := MustNew(testConfig(memctrl.SilentShredder, kernel.ZeroShred))
	rt := m.Runtime(0)
	va := rt.Malloc(4 * addr.PageSize)
	rt.StoreBytes(va, bytes.Repeat([]byte{9}, 128))
	rt.ShredRange(va, 4)
	if got := rt.LoadBytes(va, 128); !bytes.Equal(got, make([]byte, 128)) {
		t.Fatal("ShredRange did not zero the region")
	}
}

func TestBadConfigRejected(t *testing.T) {
	cfg := testConfig(memctrl.Baseline, kernel.ZeroNonTemporal)
	cfg.MemCtrl.Key = []byte("bad")
	if _, err := New(cfg); err == nil {
		t.Fatal("want error for bad key")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew must panic")
		}
	}()
	MustNew(cfg)
}

func TestTimingOnlyMode(t *testing.T) {
	cfg := testConfig(memctrl.SilentShredder, kernel.ZeroShred)
	cfg.StoreData = false
	cfg.VerifyPlaintext = false
	m := MustNew(cfg)
	rt := m.Runtime(0)
	va := rt.Malloc(16 * addr.PageSize)
	for i := 0; i < 16; i++ {
		rt.Store(va+addr.Virt(i*addr.PageSize), 7)
	}
	if v, _ := m.Snapshot().Lookup("kernel.page_faults"); v != 16 {
		t.Fatalf("faults = %v", v)
	}
	if m.Img.Enabled() {
		t.Fatal("image must be disabled")
	}
}

// TestRegistryPathsStable guards the stat paths the epoch exporter's
// default columns depend on (obscli.DefaultColumns): renaming one would
// silently flatline the exported series.
func TestRegistryPathsStable(t *testing.T) {
	m := MustNew(testConfig(memctrl.SilentShredder, kernel.ZeroShred))
	reg := m.Snapshot()
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
	if _, ok := fm.Snapshot().Lookup("memctrl.lines_retired"); !ok {
		t.Error("memctrl.lines_retired missing on an ECC machine")
	}
	// Dump must not mention obs anywhere: observability adds no stats.
	if s := fm.Snapshot().Dump(); strings.Contains(s, "obs") {
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
		if _, ok := bm.Snapshot().Lookup(path); !ok {
			t.Errorf("registry path %q missing on a banked-model machine", path)
		}
	}
}
