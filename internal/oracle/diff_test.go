// Differential tests: the same generated operation stream replayed on
// differently configured machines (baseline non-temporal zeroing, baseline
// temporal zeroing, Silent Shredder, Silent Shredder + Merkle tree) must
// produce byte-identical architectural state — the paper's §4.2 semantic
// equivalence claim, machine-checked. Every run also executes under the
// oracle cross-check (CheckOracle), so each individual load is verified
// against the pure-functional contract as it happens.
package oracle_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/apprt"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/oracle"
	"silentshredder/internal/sim"
	"silentshredder/internal/trace"
)

// personality is one machine configuration under differential test.
type personality struct {
	name      string
	mode      memctrl.Mode
	zm        kernel.ZeroMode
	integrity bool
}

func personalities() []personality {
	return []personality{
		{name: "baseline-nt", mode: memctrl.Baseline, zm: kernel.ZeroNonTemporal},
		{name: "baseline-temporal", mode: memctrl.Baseline, zm: kernel.ZeroTemporal},
		{name: "silent-shredder", mode: memctrl.SilentShredder, zm: kernel.ZeroShred},
		{name: "silent-shredder-merkle", mode: memctrl.SilentShredder, zm: kernel.ZeroShred, integrity: true},
	}
}

func checkedConfig(p personality) sim.Config {
	cfg := sim.ScaledConfig(p.mode, p.zm, 64)
	cfg.Hier.Cores = 2
	cfg.MemPages = 8192
	cfg.StoreData = true
	cfg.VerifyPlaintext = true
	cfg.CheckOracle = true
	cfg.CheckEvery = 512
	cfg.MemCtrl.Integrity = p.integrity
	return cfg
}

// replayChecked runs w on a fresh machine with personality p, under the
// oracle cross-check, and returns the machine and its runtime.
func replayChecked(t testing.TB, p personality, w oracle.Workload) (*sim.Machine, *apprt.Runtime) {
	t.Helper()
	m, err := sim.New(checkedConfig(p))
	if err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	rt := m.Runtime(0)
	for i, op := range w.Ops {
		if err := trace.Replay(rt, op); err != nil {
			t.Fatalf("%s: op %d: %v", p.name, i, err)
		}
	}
	return m, rt
}

// regionContents reads every generated region (live and freed) through
// the architectural load path, returning one byte slice per region.
func regionContents(rt *apprt.Runtime, w oracle.Workload) [][]byte {
	out := make([][]byte, len(w.Regions))
	for i, r := range w.Regions {
		out[i] = rt.LoadBytes(r.VA, r.Npages*addr.PageSize)
	}
	return out
}

func TestDifferentialPersonalitiesAgree(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w := oracle.Generate(oracle.DefaultGenConfig(seed))

			var (
				ref      [][]byte
				refName  string
				machines []*sim.Machine
			)
			for _, p := range personalities() {
				m, rt := replayChecked(t, p, w)
				got := regionContents(rt, w)
				if ref == nil {
					ref, refName = got, p.name
				} else {
					for i := range got {
						if !bytes.Equal(got[i], ref[i]) {
							t.Fatalf("region %d (%v) differs between %s and %s",
								i, w.Regions[i].VA, refName, p.name)
						}
					}
				}
				machines = append(machines, m)
			}

			// Final machine-wide invariant sweeps: once with caches live,
			// once after a full drain (the evicted variant).
			for mi, m := range machines {
				if err := m.RunInvariantSweep(); err != nil {
					t.Fatalf("%s: live sweep: %v", personalities()[mi].name, err)
				}
				m.Hier.FlushAll()
				m.MC.Flush()
				if err := m.RunInvariantSweep(); err != nil {
					t.Fatalf("%s: drained sweep: %v", personalities()[mi].name, err)
				}
				c := m.Checker()
				if c == nil || c.LoadsChecked() == 0 {
					t.Fatalf("%s: no loads verified", personalities()[mi].name)
				}
			}
		})
	}
}

func TestDifferentialFreedRegionsReadZeros(t *testing.T) {
	w := oracle.Generate(oracle.DefaultGenConfig(99))
	for _, p := range personalities()[:3] {
		_, rt := replayChecked(t, p, w)
		for _, r := range w.Regions {
			if r.Live {
				continue
			}
			got := rt.LoadBytes(r.VA, r.Npages*addr.PageSize)
			if !bytes.Equal(got, make([]byte, len(got))) {
				t.Fatalf("%s: freed region %v readable", p.name, r.VA)
			}
		}
	}
}

func TestCheckerReportsActivity(t *testing.T) {
	w := oracle.Generate(oracle.DefaultGenConfig(5))
	m, _ := replayChecked(t, personalities()[2], w)
	report := m.CheckReport()
	if strings.Contains(report, " 0 ops") || strings.Contains(report, " 0 loads") || strings.Contains(report, " 0 invariant sweeps") {
		t.Fatalf("checker idle: %s", report)
	}
}
