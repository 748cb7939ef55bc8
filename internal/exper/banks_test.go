package exper

import (
	"strings"
	"testing"
)

// TestBanksSweep checks the geometry sweep's physics: under zeroing
// traffic the baseline's posted writes contend (drain stalls on shallow
// queues, read-arounds), Silent Shredder's shred commands eliminate the
// queued writes at the source, and concentrating traffic on one bank is
// strictly worse than sixteen.
func TestBanksSweep(t *testing.T) {
	rows := Banks(quickOpts())
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 6 geometries x 2 personalities", len(rows))
	}
	byConfig := map[string]BanksRow{}
	for _, r := range rows {
		byConfig[r.Config] = r
	}
	bl1 := byConfig["baseline banks=1 depth=4"]
	bl16 := byConfig["baseline banks=16 depth=4"]
	ss1 := byConfig["shredder banks=1 depth=4"]
	if bl1.DrainStalls == 0 {
		t.Error("baseline on one depth-4 bank per channel produced no drain stalls")
	}
	if bl1.ReadArounds == 0 {
		t.Error("baseline produced no read-around-writes")
	}
	if bl16.BankConflicts >= bl1.BankConflicts {
		t.Errorf("16 banks conflict no less than 1 (%d >= %d)", bl16.BankConflicts, bl1.BankConflicts)
	}
	if ss1.DrainStalls >= bl1.DrainStalls {
		t.Errorf("shredder drain stalls %d not below baseline %d (shredding should empty the queues)",
			ss1.DrainStalls, bl1.DrainStalls)
	}
	tbl := BanksTable(rows).String()
	if !strings.Contains(tbl, "drain_stalls") || !strings.Contains(tbl, "baseline banks=1 depth=4") {
		t.Errorf("table missing expected columns/rows:\n%s", tbl)
	}
}

// sweepArtifacts renders the sweep surface the differential below pins:
// the measured tables and figure outputs whose bytes must not depend on
// the sweep worker count (-parallel). CompareAll is limited to two
// workloads (one SPEC, one PowerGraph) to keep the 6-run matrix
// affordable; the remaining comparison workloads share the same code
// path.
func sweepArtifacts(t *testing.T, o Options) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(Table2Format(Table2(o)).String())
	b.WriteString(Fig4Table(Fig4(o, []int{1 << 20})).String())
	b.WriteString(Fig5Table(Fig5(o)).String())
	b.WriteString(Fig12Table(o, Fig12(o, []int{64 << 10, 256 << 10})).String())
	b.WriteString(AblationIVTable(AblationIV(o)).String())
	b.WriteString(AblationWQTable(AblationWQ(o)).String())
	b.WriteString(BanksTable(Banks(o)).String())
	results := CompareAll(o, []string{"gcc", "pagerank"})
	b.WriteString(Fig8Table(results).String())
	b.WriteString(Fig10Table(results).String())
	b.WriteString(EnergyTable(results).String())
	csv, err := ResultsCSV(results)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(csv)
	return b.String()
}

// TestParallelSweepDifferential is the sweep-level determinism contract
// on both device models: every figure and ablation artifact, including
// the Table 2, Fig. 5, Fig. 12, write-queue and bank-geometry tables the
// other -parallel tests do not render, must be byte-identical at
// -parallel 2 and 8 to the sequential sweep, with the device on the
// legacy heuristic and on the banked drain scheduler alike.
func TestParallelSweepDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("6-run sweep matrix is not short")
	}
	for _, dev := range []struct {
		name  string
		depth int
	}{
		{"legacy-device", 0},
		{"banked-device", 8},
	} {
		t.Run(dev.name, func(t *testing.T) {
			base := quickOpts()
			base.BankQueueDepth = dev.depth
			base.Parallel = 1
			want := sweepArtifacts(t, base)
			for _, parallel := range []int{2, 8} {
				o := base
				o.Parallel = parallel
				if got := sweepArtifacts(t, o); got != want {
					t.Errorf("artifacts differ at parallel=%d vs sequential reference:\n--- want ---\n%.1500s\n--- got ---\n%.1500s",
						parallel, want, got)
				}
			}
		})
	}
}
