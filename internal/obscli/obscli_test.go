package obscli

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"silentshredder/internal/exper"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/obs"
	"silentshredder/internal/span"
	"silentshredder/internal/stats"
)

// sweepArtifacts runs the quick two-workload sweep at the given -parallel
// value — each worker job owning a private bus, captures merged in
// submission index order through the real Write path — and returns the
// bytes of the Chrome trace and epoch CSV it produced.
func sweepArtifacts(t *testing.T, parallel int) (trace, epochs []byte) {
	t.Helper()
	dir := t.TempDir()
	f := Flags{
		Trace:    filepath.Join(dir, "trace.json"),
		Ring:     obs.DefaultRingCap,
		Epoch:    1 << 16,
		EpochOut: filepath.Join(dir, "epochs.csv"),
	}
	o := exper.Options{Cores: 2, Scale: 64, Quick: true, Parallel: parallel}
	names := []string{"pagerank", "kvstore"}

	caps := exper.RunIndexed(parallel, len(names), func(i int) Capture {
		bus := f.NewBus()
		m, err := exper.RunWorkloadTweaked(o, names[i], memctrl.SilentShredder, kernel.ZeroShred,
			exper.MachineTweaks{Bus: bus, EpochEvery: f.Epoch})
		if err != nil {
			t.Errorf("run %s: %v", names[i], err)
			return Capture{Name: names[i]}
		}
		return f.Capture(names[i], bus, m)
	})
	if err := f.Write(os.Stdout, caps); err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(f.Trace)
	if err != nil {
		t.Fatal(err)
	}
	epochs, err = os.ReadFile(f.EpochOut)
	if err != nil {
		t.Fatal(err)
	}
	return trace, epochs
}

// TestParallelSweepArtifactsDeterministic is the observability half of the
// sweep engine's determinism contract: the merged Chrome trace and epoch
// CSV must be byte-identical for any -parallel value.
func TestParallelSweepArtifactsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full quick workloads")
	}
	trace1, epochs1 := sweepArtifacts(t, 1)
	trace4, epochs4 := sweepArtifacts(t, 4)
	if !bytes.Equal(trace1, trace4) {
		t.Errorf("Chrome trace differs between -parallel=1 (%d bytes) and -parallel=4 (%d bytes)",
			len(trace1), len(trace4))
	}
	if !bytes.Equal(epochs1, epochs4) {
		t.Errorf("epoch CSV differs between -parallel=1 and -parallel=4:\n--- p1 ---\n%s--- p4 ---\n%s",
			epochs1, epochs4)
	}

	// The artifacts must actually contain both runs' data, or the equality
	// above is vacuous.
	for _, name := range []string{"pagerank", "kvstore"} {
		if !bytes.Contains(trace1, []byte(name)) {
			t.Errorf("trace missing run %q", name)
		}
		if !bytes.Contains(epochs1, []byte(name)) {
			t.Errorf("epoch CSV missing run %q", name)
		}
	}
	header, _, _ := strings.Cut(string(epochs1), "\n")
	for _, col := range []string{"memctrl.shred_commands", "ctrcache.hit_rate", "memctrl.lines_retired"} {
		if !strings.Contains(header, col) {
			t.Errorf("epoch CSV header missing column %q: %s", col, header)
		}
	}
}

// spanCapture builds a Capture whose span aggregate holds one completed
// op with recognizable cycle counts, as a sweep worker would return it.
func spanCapture(name string, op span.Op, cycles uint64) Capture {
	rec := span.NewRecorder(span.Config{RingCap: 8})
	rec.SetNow(0, 100)
	rec.Begin(op, 0x1000)
	rec.Add(span.LayerDevice, cycles/2)
	rec.End(100 + cycles)
	return Capture{Name: name, Spans: rec.Spans(), SpanAgg: rec.Aggregate(), SpanDropped: rec.Dropped()}
}

// TestRunIndexedMergeOrdering is the worker-bus merge contract in
// isolation: even when later-submitted jobs finish first, the collector
// hands back captures in submission index order, so the merged span
// artifact lists runs in submission order — the property the parallel
// byte-identity goldens rest on.
func TestRunIndexedMergeOrdering(t *testing.T) {
	names := []string{"r0", "r1", "r2", "r3"}
	n := len(names)
	// done[i] closes when job i has produced its capture; job i blocks on
	// done[i+1], forcing completion order 3,2,1,0 — the exact reverse of
	// submission order. All n jobs run concurrently (parallel = n), so
	// the chain cannot deadlock.
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	caps := exper.RunIndexed(n, n, func(i int) Capture {
		if i < n-1 {
			<-done[i+1]
		}
		c := spanCapture(names[i], span.OpShred, uint64(10*(i+1)))
		close(done[i])
		return c
	})
	for i, c := range caps {
		if c.Name != names[i] {
			t.Fatalf("capture %d = %q, want %q (merge must follow submission order, not completion order)",
				i, c.Name, names[i])
		}
	}

	// The rendered artifact inherits that order.
	out := filepath.Join(t.TempDir(), "spans.csv")
	f := Flags{Spans: out}
	if err := f.Write(os.Stdout, caps); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 1+n {
		t.Fatalf("span CSV lines = %d, want header + %d rows:\n%s", len(lines), n, raw)
	}
	if lines[0] != span.BreakdownCSVHeader() {
		t.Fatalf("header = %q", lines[0])
	}
	for i, name := range names {
		if !strings.HasPrefix(lines[1+i], name+",") {
			t.Errorf("row %d = %q, want run %q first", i, lines[1+i], name)
		}
	}
}

// TestEpochDroppedFooter: the epoch CSV carries a "# dropped" comment
// line per run whose event ring wrapped — and only then, so intact
// exports stay byte-identical to pre-footer output.
func TestEpochDroppedFooter(t *testing.T) {
	epochsOf := func(run string, dropped uint64) Capture {
		var c stats.Counter
		set := stats.NewSet("memctrl")
		set.RegisterCounter("shred_commands", &c)
		reg := &stats.Registry{}
		reg.Register(set)
		s := stats.NewEpochSampler(reg, 100)
		c.Add(2)
		s.Finish(150)
		return Capture{Name: run, Epochs: s.Epochs(), Dropped: dropped}
	}
	render := func(caps []Capture) string {
		t.Helper()
		out := filepath.Join(t.TempDir(), "epochs.csv")
		f := Flags{Epoch: 100, EpochOut: out}
		if err := f.Write(os.Stdout, caps); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}

	got := render([]Capture{epochsOf("intact", 0), epochsOf("wrapped", 7)})
	if !strings.Contains(got, "# dropped run=wrapped events=7\n") {
		t.Errorf("missing footer for the wrapped run:\n%s", got)
	}
	if strings.Contains(got, "dropped run=intact") {
		t.Errorf("footer emitted for a run with no drops:\n%s", got)
	}

	clean := render([]Capture{epochsOf("intact", 0), epochsOf("wrapped", 0)})
	if strings.Contains(clean, "#") {
		t.Errorf("no-drop export contains comment lines:\n%s", clean)
	}

	// JSON mirror: a trailing {"run":...,"dropped_events":N} object, and
	// the document must stay one valid array.
	out := filepath.Join(t.TempDir(), "epochs.json")
	f := Flags{Epoch: 100, EpochOut: out}
	if err := f.Write(os.Stdout, []Capture{epochsOf("a", 0), epochsOf("b", 3)}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatalf("epoch JSON with drop marker does not parse: %v\n%s", err, raw)
	}
	last := rows[len(rows)-1]
	if last["run"] != "b" || last["dropped_events"] != float64(3) {
		t.Fatalf("trailing drop marker = %v", last)
	}
	for _, r := range rows[:len(rows)-1] {
		if _, marker := r["dropped_events"]; marker && r["run"] != "b" {
			t.Fatalf("unexpected drop marker row: %v", r)
		}
	}
}

// TestSpanExportWrite drives the -obs-spans sinks through the real Write
// path: CSV writes its header exactly once even when the first capture
// recorded no spans, appends per-run wrap footers, and the JSON form is
// one valid merged array in submission order.
func TestSpanExportWrite(t *testing.T) {
	caps := []Capture{
		{Name: "empty"}, // worker with span recording off (nil SpanAgg)
		spanCapture("alpha", span.OpShred, 40),
		spanCapture("beta", span.OpRead, 80),
	}
	caps[2].SpanDropped = 5

	dir := t.TempDir()
	f := Flags{Spans: filepath.Join(dir, "spans.csv")}
	if err := f.Write(os.Stdout, caps); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(f.Spans)
	if err != nil {
		t.Fatal(err)
	}
	got := string(raw)
	if n := strings.Count(got, span.BreakdownCSVHeader()); n != 1 {
		t.Errorf("CSV header appears %d times, want exactly 1 (first capture has nil SpanAgg):\n%s", n, got)
	}
	if !strings.HasPrefix(got, span.BreakdownCSVHeader()+"\nalpha,") {
		t.Errorf("header not first or alpha not the first row:\n%s", got)
	}
	if !strings.Contains(got, "\nbeta,") {
		t.Errorf("beta row missing:\n%s", got)
	}
	if !strings.HasSuffix(got, "# dropped run=beta spans=5\n") {
		t.Errorf("missing span wrap footer:\n%s", got)
	}
	if strings.Contains(got, "dropped run=alpha") {
		t.Errorf("footer for an intact run:\n%s", got)
	}

	fj := Flags{Spans: filepath.Join(dir, "spans.json")}
	if err := fj.Write(os.Stdout, caps); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(fj.Spans)
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatalf("span JSON does not parse: %v\n%s", err, raw)
	}
	if len(rows) != 2 {
		t.Fatalf("span JSON rows = %d, want 2 (nil aggregates skipped)", len(rows))
	}
	if rows[0]["run"] != "alpha" || rows[0]["op"] != span.OpShred.String() ||
		rows[1]["run"] != "beta" || rows[1]["op"] != span.OpRead.String() {
		t.Fatalf("span JSON order/content = %v", rows)
	}
}

func TestFlagsDisabledIsInert(t *testing.T) {
	var f Flags
	if f.Enabled() {
		t.Fatal("zero Flags reports enabled")
	}
	if f.NewBus() != nil {
		t.Fatal("disabled Flags allocates a bus")
	}
	// Write with everything off must not create files or touch stdout.
	if err := f.Write(os.Stdout, []Capture{{Name: "x"}}); err != nil {
		t.Fatal(err)
	}
}

func TestFlagsRegisterDefaults(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.Ring != obs.DefaultRingCap || f.EpochOut != "-" || f.Trace != "" || f.Epoch != 0 ||
		f.Spans != "" || f.SpanRing != span.DefaultRingCap {
		t.Fatalf("defaults = %+v", f)
	}
	if err := fs.Parse([]string{"-obs-trace", "t.json", "-obs-epoch", "500"}); err != nil {
		t.Fatal(err)
	}
	if !f.Enabled() || f.Epoch != 500 {
		t.Fatalf("parsed = %+v", f)
	}
	var fsp Flags
	fs2 := flag.NewFlagSet("t2", flag.ContinueOnError)
	fsp.Register(fs2)
	if err := fs2.Parse([]string{"-obs-spans", "s.csv", "-obs-span-ring", "128"}); err != nil {
		t.Fatal(err)
	}
	if !fsp.Enabled() || fsp.SpanRing != 128 || fsp.NewSpans() == nil {
		t.Fatalf("span flags = %+v", fsp)
	}
}

func TestSpillTraceWriteRoundTrips(t *testing.T) {
	dir := t.TempDir()
	f := Flags{Trace: filepath.Join(dir, "trace.bin"), Ring: 64}
	caps := []Capture{
		{Name: "a", Events: []obs.Event{{Seq: 0, TS: 10, Kind: obs.EvShred, Addr: 0x40}}},
		{Name: "b", Events: []obs.Event{{Seq: 0, TS: 20, Kind: obs.EvCtrMiss, Core: 1}}},
	}
	if err := f.Write(os.Stdout, caps); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(f.Trace)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := obs.DecodeSpill(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Kind != obs.EvShred || evs[1].Kind != obs.EvCtrMiss {
		t.Fatalf("decoded %+v", evs)
	}
}

// TestEpochJSONOutput drives the .json epoch sink: the merged rows of a
// multi-run sweep must form one valid JSON array with run labels.
func TestEpochJSONOutput(t *testing.T) {
	epochsOf := func(run string, add uint64) Capture {
		var c stats.Counter
		set := stats.NewSet("memctrl")
		set.RegisterCounter("shred_commands", &c)
		reg := &stats.Registry{}
		reg.Register(set)
		s := stats.NewEpochSampler(reg, 100)
		c.Add(add)
		s.Tick(100)
		c.Add(add)
		s.Finish(150)
		return Capture{Name: run, Epochs: s.Epochs()}
	}
	dir := t.TempDir()
	f := Flags{Epoch: 100, EpochOut: filepath.Join(dir, "epochs.json")}
	if err := f.Write(os.Stdout, []Capture{epochsOf("a", 3), epochsOf("b", 5)}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(f.EpochOut)
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatalf("epoch JSON does not parse: %v\n%s", err, raw)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (2 runs x 2 epochs)", len(rows))
	}
	if rows[0]["run"] != "a" || rows[2]["run"] != "b" {
		t.Fatalf("run labels = %v, %v", rows[0]["run"], rows[2]["run"])
	}
	if got := rows[3]["memctrl.shred_commands"]; got != float64(10) {
		t.Fatalf("final b shred_commands = %v, want 10", got)
	}
}

func TestDefaultColumnsAppendExtras(t *testing.T) {
	cols := DefaultColumns([]string{"lat_p50", "lat_p99"})
	var names []string
	for _, c := range cols {
		names = append(names, c.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"memctrl.shred_commands", "ctrcache.hit_rate", "lat_p50", "lat_p99"} {
		if !strings.Contains(joined, want) {
			t.Errorf("columns missing %q: %s", want, joined)
		}
	}
	if names[len(names)-1] != "lat_p99" {
		t.Errorf("extras not appended in order: %s", joined)
	}
}
