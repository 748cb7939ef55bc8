package sim_test

// Crash-anywhere differential tests: kill every machine personality at
// every device-write index of a short seeded workload, recover, and
// validate the persistent-state projection. This is the robustness
// counterpart to the oracle differential tests — instead of "all
// personalities agree while running", the contract is "no personality
// leaks pre-shred plaintext or resurrects nonzero shredded blocks across
// a power cut, no matter where the cut lands".

import (
	"testing"

	"silentshredder/internal/integrity"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/oracle"
	"silentshredder/internal/sim"
)

type crashPersonality struct {
	name         string
	mode         memctrl.Mode
	zm           kernel.ZeroMode
	integrity    bool
	engine       int // integrity.Config.DirtyCacheNodes
	writeThrough bool
}

func crashPersonalities() []crashPersonality {
	return []crashPersonality{
		{name: "baseline-nt", mode: memctrl.Baseline, zm: kernel.ZeroNonTemporal},
		{name: "baseline-temporal", mode: memctrl.Baseline, zm: kernel.ZeroTemporal},
		{name: "silent-shredder", mode: memctrl.SilentShredder, zm: kernel.ZeroShred},
		{name: "silent-shredder-wt", mode: memctrl.SilentShredder, zm: kernel.ZeroShred, writeThrough: true},
		// The two integrity engines over the crash-safe write-through
		// configuration: every cut point must recover a persistent state
		// whose counters authenticate against the (persist-ordered) root.
		{name: "ss-merkle-eager-wt", mode: memctrl.SilentShredder, zm: kernel.ZeroShred,
			integrity: true, writeThrough: true},
		{name: "ss-merkle-cached-wt", mode: memctrl.SilentShredder, zm: kernel.ZeroShred,
			integrity: true, engine: integrity.DefaultDirtyCacheNodes, writeThrough: true},
	}
}

func crashConfig(p crashPersonality) sim.Config {
	cfg := sim.ScaledConfig(p.mode, p.zm, 64)
	cfg.Hier.Cores = 2
	cfg.MemPages = 8192
	cfg.StoreData = true
	cfg.MemCtrl.Integrity = p.integrity
	cfg.MemCtrl.IntegrityCfg.DirtyCacheNodes = p.engine
	cfg.MemCtrl.CounterCache.WriteThrough = p.writeThrough
	return cfg
}

// shortWorkload is small enough that crash-at-every-write stays fast but
// still contains allocations, stores, memsets, frees and shred syscalls.
func shortWorkload(seed int64) oracle.Workload {
	return oracle.Generate(oracle.GenConfig{Seed: seed, Ops: 120, MaxAllocPages: 2, MaxLivePages: 32})
}

// TestCrashAtEveryWrite schedules a power cut immediately before every
// single device write of the workload (plus the quiescent end point) and
// validates recovery after each. Under -short the write indices are
// strided; the full sweep covers every index.
func TestCrashAtEveryWrite(t *testing.T) {
	const seed = 7
	w := shortWorkload(seed)
	for _, p := range crashPersonalities() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			cfg := crashConfig(p)

			// Quiescent run: total write count, and the crash point "after
			// everything" (power fails with the machine idle).
			_, base, err := sim.ReplayToCrash(cfg, w, ^uint64(0))
			if err != nil {
				t.Fatal(err)
			}
			if base.Crashed {
				t.Fatal("quiescent run reported a mid-op crash")
			}
			if base.Writes == 0 {
				t.Fatal("workload performed no device writes — the sweep is vacuous")
			}
			if p.zm != kernel.ZeroTemporal && base.Forbidden == 0 {
				t.Fatal("no forbidden fingerprints tracked — shreds never saw data")
			}

			stride := uint64(1)
			if testing.Short() {
				stride = base.Writes/97 + 1
			}
			crashes := 0
			for idx := uint64(0); idx < base.Writes; idx += stride {
				_, out, err := sim.ReplayToCrash(cfg, w, idx)
				if err != nil {
					t.Fatalf("crash at write %d: %v", idx, err)
				}
				if out.Crashed {
					crashes++
				}
			}
			if crashes == 0 {
				t.Fatal("no crash point actually cut an operation short")
			}
		})
	}
}

// TestCrashSafeShredMatrix pins the crash-safety classification the
// projection check keys on.
func TestCrashSafeShredMatrix(t *testing.T) {
	nt := crashConfig(crashPersonalities()[0])
	if !sim.CrashSafeShred(nt) {
		t.Error("non-temporal zeroing must be crash-safe")
	}
	temporal := crashConfig(crashPersonalities()[1])
	if sim.CrashSafeShred(temporal) {
		t.Error("temporal zeroing must not be crash-safe (§2.3)")
	}
	ss := crashConfig(crashPersonalities()[2])
	if !sim.CrashSafeShred(ss) { // battery-backed counter cache by default
		t.Error("battery-backed Silent Shredder must be crash-safe")
	}
	ssNoBattery := ss
	ssNoBattery.MemCtrl.CounterCache.BatteryBacked = false
	if sim.CrashSafeShred(ssNoBattery) {
		t.Error("write-back, no-battery Silent Shredder must not claim crash safety")
	}
	ssWT := crashConfig(crashPersonalities()[3])
	ssWT.MemCtrl.CounterCache.BatteryBacked = false
	if !sim.CrashSafeShred(ssWT) {
		t.Error("write-through Silent Shredder must be crash-safe without a battery")
	}
}

// FuzzCrashRecovery fuzzes (workload seed, crash write index, personality)
// and requires the persistent-state projection to hold for every
// combination the fuzzer finds.
func FuzzCrashRecovery(f *testing.F) {
	f.Add(int64(7), uint64(0), uint8(0))
	f.Add(int64(7), uint64(100), uint8(1))
	f.Add(int64(11), uint64(37), uint8(2))
	f.Add(int64(13), uint64(999), uint8(3))
	f.Add(int64(1), uint64(1<<40), uint8(2)) // beyond the workload: quiescent crash
	ps := crashPersonalities()
	f.Fuzz(func(t *testing.T, seed int64, writeIdx uint64, pi uint8) {
		p := ps[int(pi)%len(ps)]
		w := shortWorkload(seed)
		if _, _, err := sim.ReplayToCrash(crashConfig(p), w, writeIdx); err != nil {
			t.Fatalf("%s seed=%d crash@%d: %v", p.name, seed, writeIdx, err)
		}
	})
}
