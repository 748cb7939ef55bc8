package exper

import (
	"strings"
	"testing"

	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
)

// TestCheckedWorkloadSweeps runs real workloads — a SPEC profile and a
// PowerGraph application — under the architectural oracle and periodic
// invariant sweeps, in both controller personalities. Any contract
// violation panics inside the run; this is the oracle-checked short sweep
// the race gate executes.
func TestCheckedWorkloadSweeps(t *testing.T) {
	o := Options{Cores: 2, Scale: 64, Quick: true, Parallel: 1, Check: true}
	for _, name := range []string{"mcf", "pagerank"} {
		for _, p := range []struct {
			label string
			mode  memctrl.Mode
			zm    kernel.ZeroMode
		}{
			{"baseline", memctrl.Baseline, kernel.ZeroNonTemporal},
			{"ss", memctrl.SilentShredder, kernel.ZeroShred},
		} {
			t.Run(name+"/"+p.label, func(t *testing.T) {
				m, err := RunWorkloadTweaked(o, name, p.mode, p.zm, MachineTweaks{})
				if err != nil {
					t.Fatal(err)
				}
				c := m.Checker()
				if c == nil {
					t.Fatal("Options.Check did not attach a checker")
				}
				if c.LoadsChecked() == 0 || strings.Contains(m.CheckReport(), " 0 invariant sweeps") {
					t.Fatalf("checker idle: %s", m.CheckReport())
				}
				if !strings.Contains(m.CheckReport(), "no violations") {
					t.Fatalf("report = %q", m.CheckReport())
				}
				// The drained machine must hold every invariant too.
				m.Hier.FlushAll()
				m.MC.Flush()
				if err := m.RunInvariantSweep(); err != nil {
					t.Fatalf("drained sweep: %v", err)
				}
			})
		}
	}
}
