// Command experiments regenerates every table and figure in the paper's
// evaluation, plus the design-choice ablations. Each experiment prints an
// aligned text table with the paper's reference numbers in the title.
//
// Usage:
//
//	experiments [flags] <experiment>...
//
// `experiments -h` lists the experiments and the flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"

	"silentshredder/internal/adversary"
	"silentshredder/internal/exper"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/obs"
	"silentshredder/internal/obscli"
	"silentshredder/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// session is one invocation's state, shared by the experiments it runs.
type session struct {
	o         exper.Options
	workloads []string // -workloads; nil means each experiment's default
	format    string
	obs       *obscli.Flags
	stdout    io.Writer
	stderr    io.Writer
	results   []exper.Result // the Figure 8-11 comparison, once run
}

// comparison runs the baseline vs Silent Shredder sweep that fig8-fig11,
// energy, summary and export share, on first use only.
func (s *session) comparison() []exper.Result {
	if s.results == nil {
		n := len(s.workloads)
		if n == 0 {
			n = len(exper.AllWorkloads())
		}
		fmt.Fprintf(s.stderr, "running baseline vs Silent Shredder comparison (%d workloads x %d cores x 2 modes, %d sweep workers)...\n",
			n, s.o.Cores, s.o.Parallel)
		s.results = exper.CompareAll(s.o, s.workloads)
	}
	return s.results
}

// print writes each table on stdout, each followed by a newline.
func (s *session) print(tables ...*stats.Table) error {
	for _, t := range tables {
		fmt.Fprintln(s.stdout, t)
	}
	return nil
}

// experiment is one entry of the registry: the name given on the command
// line, its usage text, whether `all` runs it, and what it prints.
type experiment struct {
	name, help string
	inAll      bool
	run        func(s *session) error
}

// registry lists every experiment; `all` runs the inAll entries in this
// order.
var registry = []experiment{
	{"table1", "simulated system configuration", true, func(s *session) error { return s.print(exper.Table1(s.o)) }},
	{"table2", "initialization-technique comparison (measured)", true, func(s *session) error { return s.print(exper.Table2Format(exper.Table2(s.o))) }},
	{"fig4", "kernel-zeroing share of memset time (64MB-1GB)", true, func(s *session) error { return s.print(exper.Fig4Table(exper.Fig4(s.o, nil))) }},
	{"fig5", "relative writes by kernel zeroing strategy (PowerGraph)", true, func(s *session) error { return s.print(exper.Fig5Table(exper.Fig5(s.o))) }},
	{"fig8", "per-benchmark main-memory write savings", true, func(s *session) error { return s.print(exper.Fig8Table(s.comparison())) }},
	{"fig9", "per-benchmark read-traffic savings", true, func(s *session) error { return s.print(exper.Fig9Table(s.comparison())) }},
	{"fig10", "per-benchmark memory read speedup", true, func(s *session) error { return s.print(exper.Fig10Table(s.comparison())) }},
	{"fig11", "per-benchmark relative IPC", true, func(s *session) error { return s.print(exper.Fig11Table(s.comparison())) }},
	{"fig12", "counter-cache size vs miss rate", true, func(s *session) error { return s.print(exper.Fig12Table(s.o, exper.Fig12(s.o, nil))) }},
	{"ablation-iv", "the three 4.2 shred encodings", true, func(s *session) error { return s.print(exper.AblationIVTable(exper.AblationIV(s.o))) }},
	{"ablation-dcw", "encryption diffusion vs DCW/Flip-N-Write", true, func(s *session) error { return s.print(exper.AblationDCWTable(exper.AblationDCW(s.o))) }},
	{"ablation-deuce", "Silent Shredder composed with DEUCE", true, func(s *session) error { return s.print(exper.AblationDeuceTable(exper.AblationDeuce(s.o))) }},
	{"ablation-wt", "write-back vs write-through counter cache", true, func(s *session) error { return s.print(exper.AblationWTTable(exper.AblationWT(s.o))) }},
	{"ablation-writeq", "zeroing write bursts blocking reads", true, func(s *session) error { return s.print(exper.AblationWQTable(exper.AblationWQ(s.o))) }},
	{"ablation-merkle", "Bonsai Merkle integrity overhead", true, func(s *session) error { return s.print(exper.AblationMerkleTable(exper.AblationMerkle(s.o))) }},
	{"banks", "bank/queue geometry sweep under the banked device model\n(per-bank write queues, drain batching, read-around;\n-banks/-bank-queue/-bank-drain)", true, func(s *session) error { return s.print(exper.BanksTable(exper.Banks(s.o))) }},
	{"merkle", "integrity-engine comparison: eager vs cached/coalesced\nhash traffic per tree level over one checked workload", true, func(s *session) error {
		rows, err := exper.MerkleSweep(s.o, 42, s.obs.Ring)
		if err != nil {
			return err
		}
		return s.print(exper.MerkleTable(rows), exper.MerkleLevelTable(rows))
	}},
	{"latency", "latency provenance: per-op mean cycles split by layer\n(mmu/cache/counter/pad/integrity/bank/device) for the\nbaseline's NT-zero clear vs Silent Shredder's shred", true, func(s *session) error {
		rows, err := exper.LatencySweep(s.o)
		if err != nil {
			return err
		}
		return s.print(exper.LatencyTable(rows))
	}},
	{"adversary", "persistence-attack matrix: remanence / scavenger / replay\nattackers vs every (personality, shred-policy) cell", true, func(s *session) error {
		rows, err := exper.AdversaryMatrix(s.o, 42, adversary.AllAttackers())
		if err != nil {
			return err
		}
		return s.print(exper.AdversaryTable(rows))
	}},
	{"energy", "NVM energy savings (the paper's power-reduction claim)", true, func(s *session) error { return s.print(exper.EnergyTable(s.comparison())) }},
	{"summary", "averages vs the paper's headline numbers", true, func(s *session) error { return s.print(summaryTable(s.comparison())) }},
	{"faults", "ECC corrections and retirements vs injected fault rate", false, func(s *session) error {
		rows, err := exper.FaultSweep(s.o, "lbm", 42, []float64{1, 4, 16})
		if err != nil {
			return err
		}
		return s.print(exper.FaultSweepTable(rows))
	}},
	{"crash", "crash-anywhere recovery validation sweep", false, func(s *session) error {
		rows, err := exper.CrashSweep(s.o, 42, 16)
		if err != nil {
			return err
		}
		return s.print(exper.CrashSweepTable(rows))
	}},
	{"export", "comparison data as text/csv/json (see -format)", false, runExport},
	{"timeseries", "time-resolved shred/zero-fill/counter-cache series\n(-obs-epoch interval, -obs-epoch-out CSV/JSON,\n-obs-trace Chrome trace; workloads from -workloads)", false, runTimeseries},
}

// run is the testable entry point: it parses args, rejects any bad
// name or value before a machine is built, runs the named experiments
// in order, and returns the exit code (0 ok, 1 run failure, 2 usage
// error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := exper.DefaultOptions()
	o.Parallel = runtime.GOMAXPROCS(0)
	o.RegisterFlags(fs)
	workloads := fs.String("workloads", "", "comma-separated subset for fig8-fig11 (default: all 29)")
	format := fs.String("format", "text", "output for the comparison data: text | csv | json")
	obsPhase := fs.Bool("obs-phase", false, "print host wall-time phase/run timings to stderr after the sweeps")
	var obsFlags obscli.Flags
	obsFlags.Register(fs)
	var profCfg obs.ProfileConfig
	profCfg.RegisterFlags(fs)
	fs.Usage = func() { usage(fs) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	var todo []experiment
	for _, name := range fs.Args() {
		if name == "all" {
			for _, e := range registry {
				if e.inAll {
					todo = append(todo, e)
				}
			}
			continue
		}
		i := slices.IndexFunc(registry, func(e experiment) bool { return e.name == name })
		if i < 0 {
			hint := ""
			if strings.HasPrefix(name, "-") {
				hint = " (flags go before experiment names)"
			}
			fmt.Fprintf(stderr, "experiments: unknown experiment %q%s; -h lists them\n", name, hint)
			return 2
		}
		todo = append(todo, registry[i])
	}
	switch *format {
	case "text", "csv", "json":
	default:
		fmt.Fprintf(stderr, "experiments: unknown -format %q (want text, csv or json)\n", *format)
		return 2
	}
	names, err := exper.ParseWorkloads(*workloads)
	if err != nil {
		fmt.Fprintf(stderr, "experiments: -workloads: %v\n", err)
		return 2
	}
	err = o.CheckFlags()
	if err == nil {
		err = exper.CheckMachine(o.Cores, o.Scale)
	}
	if err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 2
	}

	stopProf, err := profCfg.Start()
	if err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 2
	}
	defer stopProf()
	if *obsPhase {
		o.Profile = exper.NewSweepProfile()
		defer func() {
			o.Profile.Finish()
			fmt.Fprint(stderr, o.Profile.Report())
		}()
	}

	s := &session{o: o, workloads: names, format: *format, obs: &obsFlags, stdout: stdout, stderr: stderr}
	for _, e := range todo {
		o.Profile.StartPhase(e.name) // nil-safe: no-op without -obs-phase
		if err := e.run(s); err != nil {
			fmt.Fprintf(stderr, "experiments: %s: %v\n", e.name, err)
			return 1
		}
	}
	return 0
}

// runExport prints the comparison data in the -format encoding.
func runExport(s *session) error {
	switch s.format {
	case "csv":
		out, err := exper.ResultsCSV(s.comparison())
		if err != nil {
			return err
		}
		fmt.Fprint(s.stdout, out)
	case "json":
		out, err := exper.ResultsJSON(s.comparison())
		if err != nil {
			return err
		}
		fmt.Fprintln(s.stdout, string(out))
	default:
		r := s.comparison()
		return s.print(exper.Fig8Table(r), exper.Fig9Table(r), exper.Fig10Table(r), exper.Fig11Table(r))
	}
	return nil
}

// runTimeseries is the time-resolved observability recipe: run each
// workload (default pagerank) under Silent Shredder with the epoch
// sampler (and the event bus when -obs-trace is set), then export the
// merged epoch series / Chrome trace. The sweep is fanned out like every
// other experiment; captures merge in workload order, so output is
// byte-identical for any -parallel.
func runTimeseries(s *session) error {
	names := s.workloads
	if len(names) == 0 {
		names = []string{"pagerank"}
	}
	f := s.obs
	if f.Epoch == 0 {
		f.Epoch = 1 << 20 // ~0.5ms of machine time per epoch
	}
	type out struct {
		cap obscli.Capture
		err error
	}
	outs := exper.RunIndexed(s.o.Parallel, len(names), exper.ProfiledJob(s.o.Profile, func(i int) out {
		bus := f.NewBus()
		m, err := exper.RunWorkloadTweaked(s.o, names[i], memctrl.SilentShredder, kernel.ZeroShred,
			exper.MachineTweaks{Bus: bus, EpochEvery: f.Epoch})
		if err != nil {
			return out{err: err}
		}
		return out{cap: f.Capture(names[i], bus, m)}
	}))
	caps := make([]obscli.Capture, len(outs))
	for i, r := range outs {
		if r.err != nil {
			return r.err
		}
		caps[i] = r.cap
	}
	return f.Write(s.stdout, caps)
}

// summaryTable sets the comparison's averages beside the paper's
// headline numbers.
func summaryTable(results []exper.Result) *stats.Table {
	var ws, rs, sp, ipc []float64
	for _, r := range results {
		ws = append(ws, r.WriteSavings)
		rs = append(rs, r.ReadSavings)
		sp = append(sp, r.ReadSpeedup)
		ipc = append(ipc, r.RelativeIPC)
	}
	ref := exper.PaperRef
	t := stats.NewTable("Summary: paper-reported vs measured (averages)",
		"metric", "paper", "measured")
	t.AddRow("write savings (fig 8)", ref.AvgWriteSavings, stats.ArithMean(ws))
	t.AddRow("read traffic savings (fig 9)", ref.AvgReadSavings, stats.ArithMean(rs))
	t.AddRow("memory read speedup (fig 10)", ref.AvgReadSpeedup, stats.GeoMean(sp))
	t.AddRow("relative IPC (fig 11)", 1+ref.AvgIPCGain, stats.GeoMean(ipc))
	return t
}

// usage prints the registry and the flags.
func usage(fs *flag.FlagSet) {
	w := fs.Output()
	fmt.Fprint(w, "usage: experiments [flags] <experiment>...\n\n"+
		"Regenerates the paper's evaluation tables and figures on the simulator.\n\nexperiments:\n")
	var notInAll []string
	for _, e := range registry {
		fmt.Fprintf(w, "  %-16s %s\n", e.name, strings.ReplaceAll(e.help, "\n", "\n"+strings.Repeat(" ", 19)))
		if !e.inAll {
			notInAll = append(notInAll, e.name)
		}
	}
	fmt.Fprintf(w, "  %-16s every experiment above, in order, except %s\n\nflags:\n", "all", strings.Join(notInAll, ", "))
	fs.PrintDefaults()
}
