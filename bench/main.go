// Command bench is the trace-replay benchmark of the Silent Shredder
// simulator. For each workload it generates per-core operation traces from
// a seed, replays them on fresh machines for a fixed wall-clock budget,
// checks that every run reproduces the same statistics, and reports
// end-to-end metrics; with -trace 1 it instead reports per-layer metrics
// from a traced run, a timing ladder and a CPU profile.
//
// Run it from the repository root:
//
//	bash bench/run.sh -workload churn_shred -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"silentshredder/internal/apprt"
	"silentshredder/internal/obs"
	"silentshredder/internal/sim"
	"silentshredder/internal/span"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options configure one set of measurements.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	// shrink divides every workload's input size: 1 is the benchmark,
	// the smoke test shrinks.
	shrink int
}

const (
	// Setup (generating the traces and building a first machine) is
	// repeated: once before anything else, then during the timed phase
	// once every setupEvery, and at least minSetups times in all; setup_s
	// is the median. Each sample is calibrated like a timed run.
	setupEvery = 2 * time.Second
	minSetups  = 5
	// minRuns is the fewest timed runs a workload gets, however short
	// the time budget.
	minRuns = 3
	// oracleSweepEvery spaces the oracle replay's machine-wide invariant
	// sweeps. Each sweep walks every cache and counter block, so the
	// default spacing would make the spec_timing oracle replay take six
	// seconds; every load is checked either way.
	oracleSweepEvery = 1 << 15
)

// Paths relative to the repository root, where run.sh runs the benchmark.
const (
	outDir   = "bench/out"      // result JSON, Chrome traces, CPU profiles
	specFile = "BENCHMARK.json" // the bounds -repeat checks
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "workload name, comma-separated names, or all")
	seed := fs.Int64("seed", 1, "input seed: a seed always generates the same traces")
	seconds := fs.Float64("seconds", 20, "length of each workload's timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	repeat := fs.Int("repeat", 1, "measure the whole set `N` times and check each end-to-end metric's spread against its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var ws []workload
	for _, name := range strings.Split(*names, ",") {
		if name == "all" {
			ws = append(ws, workloads...)
			continue
		}
		w, ok := workloadByName(name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		ws = append(ws, w)
	}
	if *trace != 0 && *trace != 1 || *repeat < 1 || *seconds < 0 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1, -repeat at least 1, -seconds at least 0")
		return 2
	}
	if *repeat > 1 && *trace == 1 {
		fmt.Fprintln(stderr, "bench: -repeat checks end-to-end metrics; run it with -trace 0")
		return 2
	}
	var spec benchSpec
	if *repeat > 1 {
		var err error
		if spec, err = loadSpec(specFile); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: outDir, shrink: 1}

	var sets [][]result
	for i := 0; i < *repeat; i++ {
		var set []result
		for _, w := range ws {
			r := measure(w, o)
			printReport(stdout, r)
			if err := writeResult(o.outDir, r); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
			}
			set = append(set, r)
		}
		sets = append(sets, set)
	}
	repeatOK := true
	if *repeat > 1 {
		repeatOK = checkRepeat(stdout, sets, spec)
	}
	last := sets[len(sets)-1]
	line, correct := summaryLine(last)
	fmt.Fprintln(stdout, line)
	if !correct || !repeatOK {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// share compares one layer's ladder estimate with its CPU profile share.
type share struct {
	Layer      string  `json:"layer"`
	EstMS      float64 `json:"est_ms"`
	EstShare   float64 `json:"est_share"`
	PprofShare float64 `json:"pprof_share"`
}

// result is everything one workload's measurement produced.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Digest    string   `json:"stats_digest"`
	InputHash string   `json:"input_sha256"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Runs      int      `json:"timed_runs"`
	Setups    int      `json:"setup_samples"`
	// Unscaled host time of the timed runs, and the calibration's time.
	WallMSP50     float64  `json:"wall_run_ms_p50"`
	WallMSP90     float64  `json:"wall_run_ms_p90"`
	CalibrationMS float64  `json:"calibration_ms_p50"`
	EndToEnd      []metric `json:"end_to_end,omitempty"`
	PerLayer      []metric `json:"per_layer,omitempty"`
	Shares        []share  `json:"ladder_vs_profile,omitempty"`
	Stamp         stamp    `json:"stamp"`
	// Phases is the host seconds each phase of the measurement took.
	Phases map[string]float64 `json:"phase_seconds"`
}

func (r *result) fail(what string, err error) {
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf("%s: %v", what, err))
}

// measure runs one workload: setup, an oracle-checked replay, an untimed
// warm-up replay that sets the reference digest, timed replays for
// o.seconds, and in trace mode the traced run, the ladder and the CPU
// profile. A run fails if it panics, if Apply returns an error, or if its
// digest differs from the reference.
func measure(w workload, o options) result {
	r := result{Workload: w.name, Seed: o.seed, Stamp: newStamp(o.seed), Phases: make(map[string]float64)}
	defer func() { r.Stamp.LoadAfter = loadavg() }()
	phase := func(name string, t0 time.Time) { r.Phases[name] = time.Since(t0).Seconds() }
	cfg := w.config()
	begin := time.Now()

	// setUp takes one calibrated setup sample: generate the traces and
	// build a first machine. Every sample must generate the same traces.
	var traces [][]apprt.TraceOp
	var setups []float64
	setUp := func() error {
		scale, _ := calibrate(o.shrink)
		t0 := time.Now()
		tr, err := record(w, o.seed, o.shrink)
		if err == nil {
			_, err = sim.New(cfg)
		}
		if err != nil {
			return err
		}
		setups = append(setups, scale*time.Since(t0).Seconds())
		h := traceHash(tr)
		if traces != nil && h != r.InputHash {
			return fmt.Errorf("seed %d generated different traces on setup %d", o.seed, len(setups))
		}
		r.InputHash, traces = h, tr
		return nil
	}
	if err := setUp(); err != nil {
		r.fail("setup", err)
		return r
	}
	ops := countOps(traces)
	phase("setup", begin)

	// The oracle-checked replay verifies every load against the
	// architectural reference model and sweeps machine-wide invariants
	// every oracleSweepEvery operations.
	ocfg := cfg
	ocfg.CheckOracle = true
	ocfg.CheckEvery = oracleSweepEvery
	r.Attempted++
	t0 := time.Now()
	if _, err := replayOnce(ocfg, traces, nil); err != nil {
		r.fail("oracle replay", err)
	}
	phase("oracle", t0)

	// Warm-up: the reference digest, the simulated results and the heap
	// the finished machine holds.
	r.Attempted++
	t0 = time.Now()
	ref, err := replayOnce(cfg, traces, nil)
	if err != nil {
		r.fail("warm-up replay", err)
		return r
	}
	phase("warm-up", t0)
	r.Digest = digest(ref.m.Snapshot())
	simIPC := ref.m.AggregateIPC()
	simWrites := float64(ref.m.Dev.Writes())
	simLoadCycles := meanLoadCycles(ref.m)
	var withMachine, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&withMachine)
	runtime.KeepAlive(ref.m)
	runtime.GC()
	runtime.ReadMemStats(&without)
	liveHeap := float64(int64(withMachine.HeapAlloc)-int64(without.HeapAlloc)) / (1 << 20)

	// Timed runs: a closed loop, one calibrated replay after another,
	// until the budget is spent, with the further setup samples in
	// between. runMS and replayS are scaled to the reference speed; the
	// rest is unscaled host time.
	var runMS, replayS, wallMS, calMS, buildMS, flushMS []float64
	var allocBytes, gcCycles uint64
	start := time.Now()
	nextSetup := start.Add(setupEvery)
	for len(runMS) < minRuns || time.Since(start).Seconds() < o.seconds {
		scale, took := calibrate(o.shrink)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		r.Attempted++
		rr, err := replayOnce(cfg, traces, nil)
		runtime.ReadMemStats(&ms1)
		if err == nil {
			if d := digest(rr.m.Snapshot()); d != r.Digest {
				err = fmt.Errorf("stats digest %.12s differs from the reference %.12s", d, r.Digest)
			}
		}
		if err != nil {
			r.fail("timed replay", err) // the build is broken: timing it is moot
			break
		}
		runMS = append(runMS, scale*ms(rr.total()))
		replayS = append(replayS, scale*rr.replay.Seconds())
		wallMS = append(wallMS, ms(rr.total()))
		calMS = append(calMS, ms(took))
		buildMS = append(buildMS, ms(rr.build))
		flushMS = append(flushMS, ms(rr.flush))
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		gcCycles += uint64(ms1.NumGC - ms0.NumGC)
		if time.Now().After(nextSetup) {
			if err := setUp(); err != nil {
				r.fail("setup", err)
				break
			}
			nextSetup = time.Now().Add(setupEvery)
		}
	}
	for r.Failed == 0 && len(setups) < minSetups {
		if err := setUp(); err != nil {
			r.fail("setup", err)
		}
	}
	phase("timed", start)
	if len(runMS) == 0 {
		return r
	}
	r.Runs, r.Setups = len(runMS), len(setups)
	r.WallMSP50, r.WallMSP90, r.CalibrationMS = median(wallMS), quantile(wallMS, 0.9), median(calMS)
	r.EndToEnd = []metric{
		{"mem_ops_per_s", "1/s", float64(ops.memOps()) / median(replayS)},
		{"run_ms_p50", "ms", median(runMS)},
		{"setup_s", "s", median(setups)},
		{"live_heap_mb", "MB", liveHeap},
		{"sim_ipc", "IPC", simIPC},
		{"sim_nvm_writes", "count", simWrites},
		{"sim_load_cycles", "cycles", simLoadCycles},
	}
	if !o.trace {
		return r
	}

	runs := float64(len(runMS))
	t0 = time.Now()
	r.PerLayer, r.Shares = traceLayers(w, o, cfg, traces, ops, &r, timedSummary{
		wallMS: r.WallMSP50, buildMS: median(buildMS), flushMS: median(flushMS),
		allocMB: float64(allocBytes) / (1 << 20) / runs, gcCycles: float64(gcCycles) / runs,
	})
	phase("trace", t0)
	return r
}

// meanLoadCycles is the simulated mean latency of a load over all cores.
func meanLoadCycles(m *sim.Machine) float64 {
	var sum, loads float64
	for _, c := range m.Cores {
		sum += c.MeanLoadStall() * float64(c.Loads())
		loads += float64(c.Loads())
	}
	if loads == 0 {
		return 0
	}
	return sum / loads
}

// timedSummary is what the timed runs contribute to the per-layer metrics:
// the median unscaled host ms of a run and of its build and flush phases,
// and the Go heap allocated and collections run per run.
type timedSummary struct {
	wallMS, buildMS, flushMS float64
	allocMB, gcCycles        float64
}

// traceLayers runs the traced replay, the ladder and the CPU profile, and
// returns the per-layer metrics and the ladder's cross-check against the
// profile.
func traceLayers(w workload, o options, cfg sim.Config, traces [][]apprt.TraceOp, ops opCounts,
	r *result, t timedSummary) ([]metric, []share) {
	// The traced run carries the program's own event bus and span
	// recorder, and this program's host-time sampler.
	tr := newTracer()
	tcfg := cfg
	tcfg.Bus = obs.NewBus(obs.Config{RingCap: 1 << 12})
	tcfg.Spans = span.NewRecorder(span.Config{RingCap: 1 << 12})
	r.Attempted++
	traced, err := replayOnce(tcfg, traces, tr)
	if err == nil && digest(traced.m.Snapshot()) != r.Digest {
		err = fmt.Errorf("traced stats digest differs from the untraced reference")
	}
	if err != nil {
		r.fail("traced replay", err)
		return nil, nil
	}
	if err := tr.writeChrome(filepath.Join(o.outDir, w.name+".trace.json")); err != nil {
		r.Errors = append(r.Errors, fmt.Sprintf("chrome trace: %v", err))
	}
	n := countLayers(w, traced.m, ops)
	busy := busyCycles(tcfg.Spans.Aggregate())

	// The ladder probes a finished untraced machine.
	r.Attempted++
	probed, err := replayOnce(cfg, traces, nil)
	if err == nil && digest(probed.m.Snapshot()) != r.Digest {
		err = fmt.Errorf("stats digest of the ladder's machine differs from the reference")
	}
	if err != nil {
		r.fail("ladder replay", err)
		return nil, nil
	}
	l, err := probeLadder(w, probed.m)
	if err != nil {
		r.fail("ladder", err)
		return nil, nil
	}
	probed = replayRun{}
	est := estimate(w, l, n)
	var estSum float64
	for _, e := range est {
		estSum += e.ms
	}

	shares, err := profileShares(w, o, cfg, traces, r)
	if err != nil {
		r.Errors = append(r.Errors, fmt.Sprintf("cpu profile: %v", err))
	}
	var cross []share
	for _, e := range est {
		cross = append(cross, share{Layer: e.layer, EstMS: e.ms, EstShare: e.ms / estSum, PprofShare: shares[e.layer]})
	}

	estMS := func(layer string) float64 {
		for _, e := range est {
			if e.layer == layer {
				return e.ms
			}
		}
		return 0
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	tracedMS := ms(traced.total())
	return []metric{
		{"apprt.load_ns_p50", "ns", sampleQuantile(tr, apprt.TraceLoad, 0.5)},
		{"apprt.load_ns_p99", "ns", sampleQuantile(tr, apprt.TraceLoad, 0.99)},
		{"apprt.store_ns_p50", "ns", sampleQuantile(tr, apprt.TraceStore, 0.5)},
		{"apprt.store_ns_p99", "ns", sampleQuantile(tr, apprt.TraceStore, 0.99)},
		{"apprt.malloc_ns_p50", "ns", sampleQuantile(tr, apprt.TraceMalloc, 0.5)},
		{"apprt.free_ns_p50", "ns", sampleQuantile(tr, apprt.TraceFree, 0.5)},
		{"apprt.replay_ms", "ms", ms(traced.replay)},
		{"sim.new_ms", "ms", t.buildMS},
		{"sim.flush_ms", "ms", t.flushMS},
		{"kernel.page_faults", "count", n.pageFaults},
		{"kernel.translate_ns", "ns", l.translate},
		{"kernel.fault_ns", "ns", l.fault},
		{"kernel.est_ms", "ms", estMS("kernel")},
		{"mmu.tlb_misses", "count", n.tlbMisses},
		{"mmu.sim_busy_cycles", "cycles", busy[span.LayerMMU]},
		{"cache.lookups", "count", n.lookups},
		{"cache.lookup_hit_ns", "ns", l.cacheLookupHit},
		{"cache.insert_ns", "ns", l.cacheInsert},
		{"cache.invalidate_page_ns", "ns", l.cacheInvalPage},
		{"cache.est_ms", "ms", estMS("cache")},
		{"hier.llc_misses", "count", n.llcMisses},
		{"hier.page_invalidations", "count", n.pageInvals},
		{"hier.read_ns", "ns", l.hierRead},
		{"hier.write_ns", "ns", l.hierWrite},
		{"hier.shred_invalidate_ns", "ns", l.hierShredInval},
		{"hier.est_ms", "ms", estMS("hier")},
		{"hier.sim_busy_cycles", "cycles", busy[span.LayerCache]},
		{"memctrl.data_reads", "count", n.dataReads},
		{"memctrl.zero_fill_reads", "count", n.zeroFills},
		{"memctrl.zero_fill_share", "ratio", ratio(n.zeroFills, n.zeroFills+n.dataReads)},
		{"memctrl.data_writes", "count", n.dataWrites},
		{"memctrl.zeroing_writes", "count", n.zeroing},
		{"memctrl.shred_commands", "count", n.shreds},
		{"memctrl.reencryptions", "count", n.reencrypts},
		{"memctrl.reads_blocked_by_writes", "count", n.readsBlocked},
		{"memctrl.read_ns", "ns", l.mcRead},
		{"memctrl.read_zero_fill_ns", "ns", l.mcReadZero},
		{"memctrl.write_ns", "ns", l.mcWrite},
		{"memctrl.shred_ns", "ns", l.mcShred},
		{"memctrl.zero_page_ns", "ns", l.mcZeroPage},
		{"memctrl.est_ms", "ms", estMS("memctrl")},
		{"memctrl.sim_read_cycles", "cycles", traced.m.MC.MeanReadLatency()},
		{"countercache.hits", "count", n.ccHits},
		{"countercache.misses", "count", n.ccMisses},
		{"countercache.hit_rate", "ratio", ratio(n.ccHits, n.ccHits+n.ccMisses)},
		{"countercache.writebacks", "count", n.ccWritebacks},
		{"countercache.get_hit_ns", "ns", l.ccGetHit},
		{"countercache.get_miss_ns", "ns", l.ccGetMiss},
		{"countercache.est_ms", "ms", estMS("countercache")},
		{"countercache.sim_busy_cycles", "cycles", busy[span.LayerCtrCache]},
		{"ctr.pad_ns", "ns", l.ctrPad},
		{"ctr.est_ms", "ms", estMS("ctr")},
		{"ctr.sim_busy_cycles", "cycles", busy[span.LayerPad]},
		{"aes.block_ns", "ns", l.aesBlock},
		{"aes.est_ms", "ms", estMS("aes")},
		{"integrity.updates", "count", n.treeUpdates},
		{"integrity.verifies", "count", n.treeVerifies},
		{"integrity.hash_ops", "count", n.hashOps},
		{"integrity.update_ns", "ns", l.treeUpdate},
		{"integrity.verify_ns", "ns", l.treeVerify},
		{"integrity.est_ms", "ms", estMS("integrity")},
		{"integrity.sim_busy_cycles", "cycles", busy[span.LayerIntegrity]},
		{"nvm.reads", "count", n.nvmReads},
		{"nvm.writes", "count", n.nvmWrites},
		{"nvm.bank_conflicts", "count", n.bankConflicts},
		{"nvm.read_ns", "ns", l.nvmRead},
		{"nvm.write_ns", "ns", l.nvmWrite},
		{"nvm.est_ms", "ms", estMS("nvm")},
		{"nvm.sim_busy_cycles", "cycles", busy[span.LayerDevice]},
		{"nvm.sim_bank_wait_cycles", "cycles", busy[span.LayerBankWait]},
		{"physmem.read_ns", "ns", l.physRead},
		{"physmem.write_ns", "ns", l.physWrite},
		{"physmem.est_ms", "ms", estMS("physmem")},
		{"stats.observe_ns", "ns", l.statsObserve},
		{"stats.est_ms", "ms", estMS("stats")},
		{"goruntime.alloc_mb_per_run", "MB", t.allocMB},
		{"goruntime.gc_cycles_per_run", "count", t.gcCycles},
		{"ladder.unaccounted_ms", "ms", t.wallMS - estSum},
		{"trace.overhead_frac", "ratio", tracedMS/t.wallMS - 1},
	}, cross
}

// profileShares CPU-profiles untraced replays for half the timed budget
// (at least one replay, at most five seconds: about 500 samples) and
// returns each package's share of the samples.
func profileShares(w workload, o options, cfg sim.Config, traces [][]apprt.TraceOp, r *result) (map[string]float64, error) {
	file := filepath.Join(o.outDir, w.name+".cpu.pprof")
	f, err := os.Create(file)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	budget := math.Min(o.seconds/2, 5)
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds() < budget; n++ {
		r.Attempted++
		if _, err := replayOnce(cfg, traces, nil); err != nil {
			r.fail("profiled replay", err)
			break
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	return packageShares(file)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of xs, interpolating between order
// statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// summaryLine renders the last line of output: one JSON object with the
// metrics of the measured set. With one workload, metrics carry their
// plain names; with several, each is prefixed by "workload/".
func summaryLine(set []result) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]value)}
	for _, r := range set {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		ms := r.EndToEnd
		if r.PerLayer != nil {
			ms = r.PerLayer
		}
		if ms == nil {
			out.Correct = false // the measurement could not complete
		}
		for _, m := range ms {
			name := m.Name
			if len(set) > 1 {
				name = r.Workload + "/" + name
			}
			out.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	out.Correct = out.Correct && out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or an infinity can fail to marshal; report the
		// measurement as incorrect rather than print a broken line.
		return fmt.Sprintf(`{"correct": false, "attempted": %d, "failed": %d, "metrics": {}}`, max(out.Attempted, 1), out.Failed), false
	}
	return string(line), out.Correct
}

// printReport prints one workload's metrics by name, with units.
func printReport(w io.Writer, r result) {
	fmt.Fprintf(w, "== %s  seed %d  runs %d  attempted %d  failed %d  digest %.16s\n",
		r.Workload, r.Seed, r.Runs, r.Attempted, r.Failed, r.Digest)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	for _, m := range r.EndToEnd {
		fmt.Fprintf(w, "   %-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	if len(r.Phases) > 0 {
		names := make([]string, 0, len(r.Phases))
		for k := range r.Phases {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "   phases:")
		for _, k := range names {
			fmt.Fprintf(w, " %s %.1fs", k, r.Phases[k])
		}
		fmt.Fprintln(w)
	}
	if r.Runs > 0 {
		fmt.Fprintf(w, "   %-34s %14.6g ms  (diagnostic, unscaled, n=%d)\n", "wall_run_ms_p50", r.WallMSP50, r.Runs)
		fmt.Fprintf(w, "   %-34s %14.6g ms  (diagnostic, unscaled, n=%d)\n", "wall_run_ms_p90", r.WallMSP90, r.Runs)
		fmt.Fprintf(w, "   %-34s %14.6g ms  (diagnostic, reference %g ms)\n", "calibration_ms_p50", r.CalibrationMS, ms(refCalibration))
		fmt.Fprintf(w, "   %-34s %14.6g ratio\n", "failed_frac", float64(r.Failed)/float64(r.Attempted))
		fmt.Fprintf(w, "   %-34s %14d\n", "setup samples", r.Setups)
	}
	for _, m := range r.PerLayer {
		fmt.Fprintf(w, "   %-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	if len(r.Shares) > 0 {
		fmt.Fprintf(w, "   ladder vs CPU profile (self time per package):\n")
		fmt.Fprintf(w, "   %-14s %10s %10s %12s\n", "layer", "est_ms", "est_share", "pprof_share")
		top, ptop := r.Shares[0], r.Shares[0]
		for _, s := range r.Shares {
			fmt.Fprintf(w, "   %-14s %10.3f %10.3f %12.3f\n", s.Layer, s.EstMS, s.EstShare, s.PprofShare)
			if s.EstMS > top.EstMS {
				top = s
			}
			if s.PprofShare > ptop.PprofShare {
				ptop = s
			}
		}
		verdict := "agree"
		if top.Layer != ptop.Layer {
			verdict = "DISAGREE"
		}
		fmt.Fprintf(w, "   largest layer: ladder %s, profile %s (%s)\n", top.Layer, ptop.Layer, verdict)
	}
}

// writeResult writes r, stamped with its environment, as JSON to dir.
func writeResult(dir string, r result) error {
	kind := "e2e"
	if r.PerLayer != nil {
		kind = "layers"
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	file := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", r.Workload, r.Seed, kind))
	return os.WriteFile(file, append(data, '\n'), 0o644)
}
