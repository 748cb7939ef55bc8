package exper

import (
	"flag"
	"runtime"
	"slices"
	"strings"
	"testing"

	"silentshredder/internal/integrity"
)

func quickOpts() Options { return Options{Cores: 2, Scale: 64, Quick: true} }

func TestAllWorkloadsList(t *testing.T) {
	names := AllWorkloads()
	if len(names) != 29 {
		t.Fatalf("workloads = %d, want 26 SPEC + 3 PowerGraph", len(names))
	}
	if names[len(names)-1] != "kcore" {
		t.Fatalf("last workload = %s", names[len(names)-1])
	}
}

// CheckMachine accepts 1 to 8 cores at a power-of-two scale, and rejects
// a value Options would replace with its default or a machine sim.New
// refuses.
func TestCheckMachine(t *testing.T) {
	for _, tc := range []struct {
		cores, scale int
		ok           bool
	}{
		{1, 1, true}, {8, 64, true},
		{0, 8, false}, {9, 8, false}, {8, 0, false}, {8, 3, false},
	} {
		if err := CheckMachine(tc.cores, tc.scale); (err == nil) != tc.ok {
			t.Errorf("CheckMachine(%d, %d) = %v, want ok=%v", tc.cores, tc.scale, err, tc.ok)
		}
	}
}

// TestRegisterFlags: the machine flags default to the receiver's fields,
// and CheckFlags resolves what they parse or names a bad engine.
func TestRegisterFlags(t *testing.T) {
	parse := func(args ...string) (Options, error) {
		o := Options{Cores: 4, Scale: 16, Parallel: 3, IntegrityEngine: integrity.DefaultDirtyCacheNodes}
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		o.RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return o, o.CheckFlags()
	}
	o, err := parse()
	if err != nil || o.Cores != 4 || o.Scale != 16 || o.Parallel != 3 || o.IntegrityEngine != integrity.DefaultDirtyCacheNodes {
		t.Fatalf("defaults parsed to %+v, %v", o, err)
	}
	o, err = parse("-cores", "2", "-scale", "64", "-quick", "-parallel", "0", "-banks", "4", "-integrity-engine", "eager")
	if err != nil || o.Cores != 2 || o.Scale != 64 || !o.Quick || o.Parallel != runtime.GOMAXPROCS(0) || o.Banks != 4 || o.IntegrityEngine != 0 {
		t.Fatalf("flags parsed to %+v, %v", o, err)
	}
	if _, err := parse("-integrity-engine", "lazy"); err == nil || !strings.Contains(err.Error(), `"lazy"`) {
		t.Errorf("CheckFlags = %v, want an error naming the engine", err)
	}
}

func TestParseWorkloads(t *testing.T) {
	if got, err := ParseWorkloads(" gcc, ,pagerank,"); err != nil || !slices.Equal(got, []string{"gcc", "pagerank"}) {
		t.Errorf("ParseWorkloads = %q, %v", got, err)
	}
	if got, err := ParseWorkloads(""); err != nil || got != nil {
		t.Errorf("empty list = %q, %v, want nil", got, err)
	}
	if _, err := ParseWorkloads("gcc,mfc"); err == nil || !strings.Contains(err.Error(), `"mfc"`) {
		t.Errorf("unknown workload: err = %v", err)
	}
}

func TestUnknownWorkloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for unknown workload")
		}
	}()
	Compare(quickOpts(), "not-a-benchmark")
}

// The headline reproduction: Silent Shredder eliminates a large fraction
// of writes, saves read traffic, speeds up reads, and improves IPC — the
// Figures 8-11 directions — on representative workloads.
func TestCompareReproducesPaperDirections(t *testing.T) {
	o := quickOpts()
	for _, name := range []string{"h264", "mcf", "pagerank"} {
		r := Compare(o, name)
		if r.WriteSavings <= 0.1 {
			t.Errorf("%s: write savings = %.3f, expected substantial", name, r.WriteSavings)
		}
		if r.ReadSavings <= 0.05 {
			t.Errorf("%s: read savings = %.3f", name, r.ReadSavings)
		}
		if r.ReadSpeedup <= 1.0 {
			t.Errorf("%s: read speedup = %.3f, must exceed 1", name, r.ReadSpeedup)
		}
		if r.RelativeIPC <= 1.0 {
			t.Errorf("%s: relative IPC = %.4f, must exceed 1", name, r.RelativeIPC)
		}
	}
}

func TestWriteLightBenchmarkSavesMost(t *testing.T) {
	o := quickOpts()
	light := Compare(o, "hmmer")
	heavy := Compare(o, "lbm")
	if light.WriteSavings <= heavy.WriteSavings {
		t.Fatalf("hmmer savings %.3f must exceed lbm %.3f",
			light.WriteSavings, heavy.WriteSavings)
	}
}

func TestCompareAllAndTables(t *testing.T) {
	o := quickOpts()
	results := CompareAll(o, []string{"gcc", "pagerank"})
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, tbl := range []string{
		Fig8Table(results).String(),
		Fig9Table(results).String(),
		Fig10Table(results).String(),
		Fig11Table(results).String(),
	} {
		if !strings.Contains(tbl, "gcc") || !strings.Contains(tbl, "Average") {
			t.Fatalf("table missing rows:\n%s", tbl)
		}
	}
}

func TestFig4KernelShare(t *testing.T) {
	o := quickOpts()
	points := Fig4(o, []int{1 << 20, 2 << 20})
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.FirstSec <= p.SecondSec {
			t.Fatalf("size %d: first memset must be slower", p.Size)
		}
		if p.KernelShare < 0.05 || p.KernelShare > 0.8 {
			t.Fatalf("size %d: kernel share = %.2f, implausible", p.Size, p.KernelShare)
		}
	}
	tbl := Fig4Table(points).String()
	if !strings.Contains(tbl, "1MB") {
		t.Fatalf("table:\n%s", tbl)
	}
}

func TestFig5ZeroingDominance(t *testing.T) {
	o := quickOpts()
	rows := Fig5(o)
	if len(rows) != len(Fig5Workloads) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Unmodified != 1 {
			t.Fatalf("%s: unmodified must be 1", r.Name)
		}
		if r.NoZeroing >= r.NonTemporal {
			t.Errorf("%s: no-zeroing (%.3f) must be below non-temporal (%.3f)",
				r.Name, r.NoZeroing, r.NonTemporal)
		}
		// The §3 claim: kernel zeroing causes a large share of writes.
		if r.KernelZeroShare < 0.25 {
			t.Errorf("%s: kernel zeroing share = %.3f, expected substantial", r.Name, r.KernelZeroShare)
		}
	}
	if !strings.Contains(Fig5Table(rows).String(), "Average") {
		t.Fatal("table missing average")
	}
}

func TestFig12MissRateFalls(t *testing.T) {
	o := quickOpts()
	points := Fig12(o, nil)
	if len(points) < 5 {
		t.Fatalf("points = %d", len(points))
	}
	first, last := points[0].MissRate, points[len(points)-1].MissRate
	if last >= first/2 {
		t.Fatalf("miss rate must fall substantially with size: %.4f -> %.4f", first, last)
	}
	// Monotone within noise: allow tiny increases.
	for i := 1; i < len(points); i++ {
		if points[i].MissRate > points[i-1].MissRate*1.2+0.01 {
			t.Fatalf("miss rate increased at %d: %.4f -> %.4f",
				i, points[i-1].MissRate, points[i].MissRate)
		}
	}
	if !strings.Contains(Fig12Table(o, points).String(), "miss_rate") {
		t.Fatal("table malformed")
	}
}

func TestTable1Render(t *testing.T) {
	tbl := Table1(quickOpts()).String()
	for _, want := range []string{"L4 Cache", "Counter Cache", "MESI", "75ns", "150ns"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, tbl)
		}
	}
}

func TestTable2MeasuredProperties(t *testing.T) {
	rows := Table2(quickOpts())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Mechanism] = r
	}
	temporal := byName["Temporal stores"]
	nt := byName["Non-temporal stores"]
	ss := byName["Silent Shredder"]

	if temporal.CachePollution == 0 {
		t.Error("temporal zeroing must pollute the cache")
	}
	if nt.CachePollution != 0 || ss.CachePollution != 0 {
		t.Errorf("NT/shred must not pollute: %d/%d", nt.CachePollution, ss.CachePollution)
	}
	if ss.ClearCycles >= nt.ClearCycles || nt.ClearCycles >= temporal.ClearCycles {
		t.Errorf("clear cycles ordering wrong: ss=%d nt=%d temporal=%d",
			ss.ClearCycles, nt.ClearCycles, temporal.ClearCycles)
	}
	if ss.NVMWrites >= nt.NVMWrites {
		t.Errorf("shred writes (%d) must be far below NT (%d)", ss.NVMWrites, nt.NVMWrites)
	}
	if temporal.Persistent {
		t.Error("temporal zeroing must not survive a crash (§2.3)")
	}
	if !nt.Persistent || !ss.Persistent {
		t.Errorf("NT/shred must be crash persistent: %v/%v", nt.Persistent, ss.Persistent)
	}
	if ss.PostClearReadCy >= nt.PostClearReadCy {
		t.Errorf("shredded page reads (%.0f cy) must beat zeroed page reads (%.0f cy)",
			ss.PostClearReadCy, nt.PostClearReadCy)
	}
	if !strings.Contains(Table2Format(rows).String(), "Silent Shredder") {
		t.Fatal("table malformed")
	}
}

func TestAblationIV(t *testing.T) {
	rows := AblationIV(quickOpts())
	byOpt := map[string]AblationIVRow{}
	for _, r := range rows {
		byOpt[r.Option] = r
	}
	if byOpt["inc-minors"].Reencryptions == 0 {
		t.Error("incrementing minors must trigger re-encryptions")
	}
	if byOpt["reserve-zero"].Reencryptions != 0 {
		t.Error("Silent Shredder churn must not re-encrypt")
	}
	if byOpt["inc-major"].ReadsAreZero || byOpt["inc-minors"].ReadsAreZero {
		t.Error("options one/two must fail the read-zeros compatibility probe")
	}
	if !byOpt["reserve-zero"].ReadsAreZero {
		t.Error("Silent Shredder must read zeros after shred")
	}
	if byOpt["inc-minors"].NVMWrites <= byOpt["reserve-zero"].NVMWrites {
		t.Error("re-encryption churn must cost extra NVM writes")
	}
	if !strings.Contains(AblationIVTable(rows).String(), "reserve-zero") {
		t.Fatal("table malformed")
	}
}

func TestAblationDCWDiffusion(t *testing.T) {
	rows := AblationDCW(quickOpts())
	byCfg := map[string]AblationDCWRow{}
	for _, r := range rows {
		byCfg[r.Config] = r
	}
	plainDCW := byCfg["plaintext + DCW"]
	encDCW := byCfg["encrypted + DCW"]
	if plainDCW.FlipsPerWrite*3 >= encDCW.FlipsPerWrite {
		t.Errorf("encryption must inflate DCW flips: plain=%.1f enc=%.1f",
			plainDCW.FlipsPerWrite, encDCW.FlipsPerWrite)
	}
	// Encrypted writes flip ~half the 512 cells.
	if encDCW.FlipsPerWrite < 180 || encDCW.FlipsPerWrite > 330 {
		t.Errorf("encrypted DCW flips = %.1f, expected ~256", encDCW.FlipsPerWrite)
	}
	plainFNW := byCfg["plaintext + FNW"]
	encFNW := byCfg["encrypted + FNW"]
	if plainFNW.FlipsPerWrite >= encFNW.FlipsPerWrite {
		t.Error("encryption must inflate FNW flips too")
	}
	// FNW bounds encrypted flips to half the cells plus flip bits.
	if encFNW.FlipsPerWrite > 8*33 {
		t.Errorf("FNW bound violated: %.1f", encFNW.FlipsPerWrite)
	}
	if !strings.Contains(AblationDCWTable(rows).String(), "plaintext + DCW") {
		t.Fatal("table malformed")
	}
}

func TestAblationWT(t *testing.T) {
	rows := AblationWT(quickOpts())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	wb, wt := rows[0], rows[1]
	if wt.CtrNVMWrites <= wb.CtrNVMWrites {
		t.Errorf("write-through counter writes (%d) must exceed write-back (%d)",
			wt.CtrNVMWrites, wb.CtrNVMWrites)
	}
	if !strings.Contains(AblationWTTable(rows).String(), "write-through") {
		t.Fatal("table malformed")
	}
}

func TestAblationMerkle(t *testing.T) {
	rows := AblationMerkle(quickOpts())
	none, tree := rows[0], rows[1]
	if tree.IPC > none.IPC {
		t.Errorf("integrity tree cannot speed things up: %.4f vs %.4f", tree.IPC, none.IPC)
	}
	overhead := 1 - tree.IPC/none.IPC
	if overhead > 0.2 {
		t.Errorf("merkle overhead = %.1f%%, far above the ~2%% ballpark", overhead*100)
	}
	if !strings.Contains(AblationMerkleTable(rows).String(), "bonsai") {
		t.Fatal("table malformed")
	}
}

func TestAblationDeuce(t *testing.T) {
	rows := AblationDeuce(quickOpts())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	plain, deuce := rows[0], rows[1]
	if deuce.FlipsPerWrite >= plain.FlipsPerWrite {
		t.Errorf("DEUCE flips/write (%.1f) must be below full re-encryption (%.1f)",
			deuce.FlipsPerWrite, plain.FlipsPerWrite)
	}
	// Silent Shredder's savings must survive composition with DEUCE.
	for _, r := range rows {
		if r.WriteSavings <= 0.1 {
			t.Errorf("%s: SS write savings = %.3f under composition", r.Config, r.WriteSavings)
		}
	}
	if !strings.Contains(AblationDeuceTable(rows).String(), "DEUCE") {
		t.Fatal("table malformed")
	}
}

func TestKVStoreWorkload(t *testing.T) {
	r := Compare(quickOpts(), "kvstore")
	if r.WriteSavings <= 0.1 {
		t.Fatalf("kvstore write savings = %.3f", r.WriteSavings)
	}
	if r.RelativeIPC <= 1.0 {
		t.Fatalf("kvstore relative IPC = %.4f", r.RelativeIPC)
	}
}

func TestEnergySavings(t *testing.T) {
	r := Compare(quickOpts(), "mcf")
	if r.EnergySavings <= 0.05 {
		t.Fatalf("energy savings = %.3f, expected substantial", r.EnergySavings)
	}
	if !strings.Contains(EnergyTable([]Result{r}).String(), "mcf") {
		t.Fatal("table malformed")
	}
}

func TestAblationWQ(t *testing.T) {
	rows := AblationWQ(quickOpts())
	bl, ss := rows[0], rows[1]
	if bl.ReadsBlocked <= ss.ReadsBlocked {
		t.Fatalf("baseline blocked reads (%d) must exceed SS (%d)",
			bl.ReadsBlocked, ss.ReadsBlocked)
	}
	if !strings.Contains(AblationWQTable(rows).String(), "write queue") {
		t.Fatal("table malformed")
	}
}
