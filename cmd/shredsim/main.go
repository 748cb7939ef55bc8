// Command shredsim runs one or more workloads on the simulated
// secure-NVMM machine and dumps the full statistics registry — the
// general-purpose front door to the simulator.
//
// -workload accepts a comma-separated list; independent runs are fanned
// out across -parallel worker goroutines (each machine confined to its
// worker, statistics crossing back as by-value snapshots) and reported in
// the order given, so output is byte-identical for any worker count.
//
// Examples:
//
//	shredsim -workload pagerank -mode ss -zeroing shred
//	shredsim -workload mcf -mode baseline -zeroing non-temporal -cores 4
//	shredsim -workload mcf,gcc,pagerank -parallel 3
//	shredsim -workload kvstore -faults 42:stuck=1e-3,flip=1e-5,drop=1e-4
//	shredsim -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"

	"silentshredder/internal/exper"
	"silentshredder/internal/fault"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/obs"
	"silentshredder/internal/obscli"
	"silentshredder/internal/sim"
	"silentshredder/internal/stats"
	"silentshredder/internal/telemetry"
	"silentshredder/internal/workloads/spec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, rejects any bad value
// before a machine is built, runs the workloads and returns the exit code
// (0 ok, 1 run failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shredsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := exper.DefaultOptions()
	o.Parallel = runtime.GOMAXPROCS(0)
	o.RegisterFlags(fs)
	var (
		workload = fs.String("workload", "pagerank", "workload(s) to run, comma-separated (see -list)")
		mode     = fs.String("mode", "ss", "memory controller: ss | baseline")
		zeroing  = fs.String("zeroing", "", "kernel zeroing: shred | non-temporal | temporal (default matches -mode)")
		list     = fs.Bool("list", false, "list available workloads and exit")

		deuce     = fs.Bool("deuce", false, "enable DEUCE partial re-encryption")
		integrity = fs.Bool("integrity", false, "enable the Bonsai Merkle counter tree")
		ccSize    = fs.Int("counter-cache", 0, "counter cache bytes (0 = Table 1 / scale)")
		wt        = fs.Bool("write-through", false, "write-through counter cache (no battery needed)")
		saveNVM   = fs.String("save-nvm", "", "after the run, write a memory-state checkpoint (DIMM image) to this file (single workload only)")
		faults    = fs.String("faults", "", "deterministic fault injection, seed:rate,... e.g. 42:stuck=1e-3,flip=1e-6,drop=1e-4,torn=1e-5,endur=1000 (enables ECC; \"off\" or empty disables)")
		shredPol  = fs.String("shred-policy", "zero-cost", "physical shred policy: zero-cost | duty-to-delete | multi-pass (overwrite invalidated pages on the device)")
		obsPhase  = fs.Bool("obs-phase", false, "print host wall-time phase/run timings to stderr after the sweep")
		serve     = fs.String("serve", "", "after the run(s), serve live telemetry (/metrics in Prometheus text format, /healthz) on this address, e.g. :9090, until interrupted")
	)
	var obsFlags obscli.Flags
	obsFlags.Register(fs)
	var profCfg obs.ProfileConfig
	profCfg.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usageErr := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "shredsim: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		// Parsing stops at the first argument that is not a flag, so
		// every flag after it would be ignored too.
		return usageErr("unexpected argument %q (workloads go in -workload, flags before any argument)", fs.Arg(0))
	}

	if *list {
		fmt.Fprintln(stdout, "SPEC CPU2006 profiles:")
		for _, p := range spec.Profiles {
			fmt.Fprintf(stdout, "  %s\n", p.Name)
		}
		fmt.Fprintln(stdout, "PowerGraph applications:")
		for _, n := range exper.Fig5Workloads {
			fmt.Fprintf(stdout, "  %s\n", n)
		}
		return 0
	}
	faultCfg, err := fault.Parse(*faults)
	if err != nil {
		return usageErr("%v", err)
	}
	policy, err := memctrl.ParseShredPolicy(*shredPol)
	if err != nil {
		return usageErr("%v", err)
	}
	mcMode := memctrl.SilentShredder
	zm := kernel.ZeroShred
	switch *mode {
	case "ss", "silent-shredder":
	case "baseline":
		mcMode = memctrl.Baseline
		zm = kernel.ZeroNonTemporal
	default:
		return usageErr("unknown mode %q", *mode)
	}
	switch *zeroing {
	case "":
	case "shred":
		zm = kernel.ZeroShred
	case "non-temporal":
		zm = kernel.ZeroNonTemporal
	case "temporal":
		zm = kernel.ZeroTemporal
	default:
		return usageErr("unknown zeroing %q", *zeroing)
	}
	if zm == kernel.ZeroShred && mcMode != memctrl.SilentShredder {
		return usageErr("shred zeroing requires -mode ss")
	}
	if err := o.CheckFlags(); err != nil {
		return usageErr("%v", err)
	}
	if err := checkMachine(o.Cores, o.Scale, *ccSize); err != nil {
		return usageErr("%v", err)
	}
	names, err := exper.ParseWorkloads(*workload)
	if err != nil {
		return usageErr("%v (-list shows them)", err)
	}
	if len(names) == 0 {
		return usageErr("no workload given")
	}
	if faultCfg.Enabled() && o.Check {
		return usageErr("-check and -faults are incompatible (lost lines legitimately diverge from the oracle)")
	}
	if *saveNVM != "" && len(names) > 1 {
		return usageErr("-save-nvm requires a single workload")
	}

	stopProf, err := profCfg.Start()
	if err != nil {
		return usageErr("%v", err)
	}
	defer stopProf()
	if *obsPhase {
		o.Profile = exper.NewSweepProfile()
		o.Profile.StartPhase("simulate")
	}
	tweak := exper.MachineTweaks{
		DEUCE:            *deuce,
		Integrity:        *integrity,
		CounterCacheSize: *ccSize,
		WriteThrough:     *wt,
		Policy:           policy,
		Faults:           faultCfg,
		EpochEvery:       obsFlags.Epoch,
	}

	// One machine per worker goroutine; only plain values (the report
	// string, built from a stats snapshot) escape a worker, so the sweep
	// is race-free and its output deterministic.
	type runOut struct {
		text   string
		cap    obscli.Capture
		sample telemetry.Sample
		err    error
	}
	outs := exper.RunIndexed(o.Parallel, len(names), exper.ProfiledJob(o.Profile, func(i int) runOut {
		// Per-run bus, sampler, and span recorder, confined to this
		// worker: captures cross back by value, so traces merge
		// deterministically.
		tw := tweak
		tw.Bus = obsFlags.NewBus()
		tw.Spans = obsFlags.NewSpans()
		m, err := exper.RunWorkloadTweaked(o, names[i], mcMode, zm, tw)
		if err != nil {
			return runOut{err: err}
		}
		text := report(names[i], mcMode, zm, o.Cores, o.Scale,
			m.AggregateIPC(), m.TotalInstructions(), m.MaxCycles(), m.Snapshot())
		if cr := m.CheckReport(); cr != "" {
			text += "\n" + cr + "\n"
		}
		cap := obsFlags.Capture(names[i], tw.Bus, m)
		r := runOut{text: text, cap: cap, sample: telemetry.Sample{
			Run: names[i], Cycles: m.MaxCycles(), Instructions: m.TotalInstructions(),
			IPC: m.AggregateIPC(), Snap: m.Snapshot(), Spans: cap.SpanAgg,
		}}
		if *saveNVM != "" {
			r.err = saveCheckpoint(m, *saveNVM)
		}
		return r
	}))
	failed := false
	for i, r := range outs {
		if r.err != nil {
			fmt.Fprintf(stderr, "shredsim: %v\n", r.err)
			failed = true
			continue
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprint(stdout, r.text)
	}
	if obsFlags.Enabled() && !failed {
		caps := make([]obscli.Capture, len(outs))
		for i, r := range outs {
			caps[i] = r.cap
		}
		if err := obsFlags.Write(stdout, caps); err != nil {
			fmt.Fprintf(stderr, "shredsim: %v\n", err)
			failed = true
		}
	}
	if o.Profile != nil {
		o.Profile.Finish()
		fmt.Fprint(stderr, o.Profile.Report())
	}
	if failed {
		return 1
	}
	if *saveNVM != "" {
		fmt.Fprintf(stderr, "memory-state checkpoint written to %s\n", *saveNVM)
	}
	if *serve != "" {
		samples := make([]telemetry.Sample, len(outs))
		for i, r := range outs {
			samples[i] = r.sample
		}
		if err := serveTelemetry(stderr, *serve, samples); err != nil {
			fmt.Fprintf(stderr, "shredsim: %v\n", err)
			return 1
		}
	}
	return 0
}

// saveCheckpoint writes m's memory state (a DIMM image) to path.
func saveCheckpoint(m *sim.Machine, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.SaveMemoryState(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serveTelemetry publishes the finished runs' samples and serves the
// telemetry endpoints until the process is interrupted.
func serveTelemetry(stderr io.Writer, addr string, samples []telemetry.Sample) error {
	var p telemetry.Publisher
	p.Publish(samples)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "shredsim: serving /metrics and /healthz on http://%s (interrupt to stop)\n", ln.Addr())
	return http.Serve(ln, telemetry.Handler(&p))
}

// report renders one run. It takes only plain values (no live machine):
// workers hand their statistics over as a by-value stats.Snapshot, whose
// Dump is byte-identical to the live Registry's.
func report(name string, mcMode memctrl.Mode, zm kernel.ZeroMode, cores, scale int,
	ipc float64, instructions, maxCycles uint64, snap stats.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload=%s mode=%s zeroing=%s cores=%d scale=1/%d\n\n",
		name, mcMode, zm, cores, scale)
	fmt.Fprintf(&b, "aggregate IPC: %.4f\n", ipc)
	fmt.Fprintf(&b, "instructions:  %d\n", instructions)
	fmt.Fprintf(&b, "cycles (max):  %d (%.3f ms simulated)\n\n",
		maxCycles, float64(maxCycles)/2e9*1e3)
	b.WriteString(snap.Dump())
	return b.String()
}

// checkMachine rejects a machine shredsim cannot run as asked: a -cores
// or -scale exper.CheckMachine rejects, and a -counter-cache size that is
// not a power-of-two number of 512-byte sets.
func checkMachine(cores, scale, counterCache int) error {
	if err := exper.CheckMachine(cores, scale); err != nil || counterCache <= 0 {
		return err
	}
	cfg := sim.ScaledConfig(memctrl.SilentShredder, kernel.ZeroShred, scale)
	cfg.MemCtrl.CounterCache.Size = counterCache
	if err := cfg.MemCtrl.CounterCache.Tags().Validate(); err != nil {
		return fmt.Errorf("-scale %d with -counter-cache %d: %w", scale, counterCache, err)
	}
	return nil
}
