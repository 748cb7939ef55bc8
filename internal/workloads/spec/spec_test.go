package spec

import (
	"testing"

	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/sim"
)

func TestProfilesComplete(t *testing.T) {
	if len(Profiles) != 26 {
		t.Fatalf("profiles = %d, want the paper's 26 SPEC workloads", len(Profiles))
	}
	seen := map[string]bool{}
	for _, p := range Profiles {
		if seen[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.InitPages <= 0 || p.InitWriteFrac < 0 || p.InitWriteFrac > 1 ||
			p.InitReadFrac < 0 || p.InitReadFrac > 1 ||
			p.SteadyWriteFrac < 0 || p.SteadyWriteFrac > 1 ||
			p.ComputePerOp <= 0 || p.Locality < 0 || p.Locality > 1 {
			t.Fatalf("profile %q has out-of-range parameters: %+v", p.Name, p)
		}
	}
}

func TestByName(t *testing.T) {
	p, ok := ByName("bwaves")
	if !ok || p.Name != "bwaves" {
		t.Fatal("ByName(bwaves) failed")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Fatal("unknown name must not resolve")
	}
}

func runProfile(t *testing.T, p Profile, mode memctrl.Mode, zm kernel.ZeroMode) *sim.Machine {
	t.Helper()
	cfg := sim.ScaledConfig(mode, zm, 128)
	cfg.Hier.Cores = 1
	cfg.MemPages = 1 << 16
	cfg.StoreData = false
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	small := p
	small.InitPages = 32
	Run(m.Runtime(0), small, 1)
	return m
}

func TestRunGeneratesExpectedTraffic(t *testing.T) {
	p, _ := ByName("mcf")
	m := runProfile(t, p, memctrl.SilentShredder, kernel.ZeroShred)
	if faults, _ := m.Snapshot().Lookup("kernel.page_faults"); faults != 32 {
		t.Fatalf("page faults = %v, want 32 (one per init page)", faults)
	}
	if m.MC.ShredCommands() != 32 {
		t.Fatalf("shreds = %d", m.MC.ShredCommands())
	}
	if m.TotalInstructions() == 0 {
		t.Fatal("no instructions retired")
	}
}

func TestWriteLightProfileSavesMoreThanWriteHeavy(t *testing.T) {
	run := func(name string, mode memctrl.Mode, zm kernel.ZeroMode) uint64 {
		p, ok := ByName(name)
		if !ok {
			t.Fatalf("missing profile %s", name)
		}
		m := runProfile(t, p, mode, zm)
		m.Hier.FlushAll()
		m.MC.Flush()
		return m.Dev.Writes()
	}
	savings := func(name string) float64 {
		bl := run(name, memctrl.Baseline, kernel.ZeroNonTemporal)
		ss := run(name, memctrl.SilentShredder, kernel.ZeroShred)
		return 1 - float64(ss)/float64(bl)
	}
	light, heavy := savings("h264"), savings("lbm")
	if light <= heavy {
		t.Fatalf("h264 savings (%.2f) must exceed lbm savings (%.2f)", light, heavy)
	}
	if light < 0.5 {
		t.Fatalf("h264 savings = %.2f, expected most writes from zeroing", light)
	}
}

func TestZeroFillReadsOccurInShredMode(t *testing.T) {
	p, _ := ByName("bwaves")
	m := runProfile(t, p, memctrl.SilentShredder, kernel.ZeroShred)
	if m.MC.ZeroFillReads() == 0 {
		t.Fatal("init-phase reads of unwritten blocks must zero-fill")
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	p, _ := ByName("gcc")
	m1 := runProfile(t, p, memctrl.SilentShredder, kernel.ZeroShred)
	m2 := runProfile(t, p, memctrl.SilentShredder, kernel.ZeroShred)
	if m1.TotalInstructions() != m2.TotalInstructions() ||
		m1.MaxCycles() != m2.MaxCycles() {
		t.Fatal("same seed must reproduce identical runs")
	}
}
