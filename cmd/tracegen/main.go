// Command tracegen records and replays application memory traces.
//
// Record a SPEC profile's operation stream:
//
//	tracegen record -workload gcc -out gcc.trace
//
// Replay it on a differently configured machine (trace-driven what-if):
//
//	tracegen replay -in gcc.trace -mode baseline -zeroing non-temporal
//	tracegen replay -in gcc.trace -mode ss -zeroing shred
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"silentshredder/internal/exper"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/obs"
	"silentshredder/internal/sim"
	"silentshredder/internal/trace"
	"silentshredder/internal/workloads/spec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it dispatches the subcommand, which
// rejects any bad value before it creates a file or builds a machine,
// and returns the exit code (0 ok, 1 runtime failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "record":
			return record(args[1:], stdout, stderr)
		case "replay":
			return replay(args[1:], stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "usage: tracegen record|replay [flags]")
	return 2
}

// parse parses a subcommand's flags and checks what both subcommands
// share: no stray argument and a -scale the one-core machine accepts.
// When done is true the subcommand stops and exits with code.
func parse(fs *flag.FlagSet, args []string, scale *int, stderr io.Writer) (code int, done bool) {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, true
		}
		return 2, true
	}
	if fs.NArg() > 0 {
		return usageErr(stderr, fs.Name(), "unexpected argument %q", fs.Arg(0)), true
	}
	if err := exper.CheckMachine(1, *scale); err != nil {
		return usageErr(stderr, fs.Name(), "%v", err), true
	}
	return 0, false
}

func usageErr(stderr io.Writer, cmd, format string, a ...any) int {
	fmt.Fprintf(stderr, "tracegen %s: "+format+"\n", append([]any{cmd}, a...)...)
	return 2
}

func failed(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "tracegen: "+err.Error())
	return 1
}

func machine(mode memctrl.Mode, zm kernel.ZeroMode, scale int) (*sim.Machine, error) {
	cfg := sim.ScaledConfig(mode, zm, scale)
	cfg.Hier.Cores = 1
	cfg.StoreData = false
	cfg.MemPages = 1 << 20
	return sim.New(cfg)
}

func record(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	workload := fs.String("workload", "gcc", "SPEC profile to trace")
	out := fs.String("out", "", "output trace file (required)")
	seed := fs.Int64("seed", 1, "workload instance seed")
	scale := fs.Int("scale", 8, "cache scale during recording")
	var profCfg obs.ProfileConfig
	profCfg.RegisterFlags(fs)
	if code, done := parse(fs, args, scale, stderr); done {
		return code
	}
	if *out == "" {
		return usageErr(stderr, "record", "-out is required")
	}
	profile, ok := spec.ByName(*workload)
	if !ok {
		return usageErr(stderr, "record", "unknown SPEC profile %q", *workload)
	}

	stopProf, err := profCfg.Start()
	if err != nil {
		return failed(stderr, err)
	}
	defer stopProf()
	f, err := os.Create(*out)
	if err != nil {
		return failed(stderr, err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		return failed(stderr, err)
	}
	m, err := machine(memctrl.SilentShredder, kernel.ZeroShred, *scale)
	if err != nil {
		return failed(stderr, err)
	}
	rt := m.Runtime(0)
	rt.SetTraceHook(w.Hook())
	spec.Run(rt, profile, *seed)
	if err := w.Flush(); err != nil {
		return failed(stderr, err)
	}
	if err := f.Close(); err != nil {
		return failed(stderr, err)
	}
	fmt.Fprintf(stdout, "recorded %d operations from %s (seed %d) to %s\n",
		w.Count(), *workload, *seed, *out)
	return 0
}

func replay(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	in := fs.String("in", "", "input trace file (required)")
	mode := fs.String("mode", "ss", "controller: ss | baseline")
	zeroing := fs.String("zeroing", "", "kernel zeroing: shred | non-temporal | temporal (default matches -mode)")
	scale := fs.Int("scale", 8, "cache scale during replay")
	var profCfg obs.ProfileConfig
	profCfg.RegisterFlags(fs)
	if code, done := parse(fs, args, scale, stderr); done {
		return code
	}
	if *in == "" {
		return usageErr(stderr, "replay", "-in is required")
	}
	mcMode, zm := memctrl.SilentShredder, kernel.ZeroShred
	switch *mode {
	case "ss":
	case "baseline":
		mcMode, zm = memctrl.Baseline, kernel.ZeroNonTemporal
	default:
		return usageErr(stderr, "replay", "unknown mode %q", *mode)
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
		return usageErr(stderr, "replay", "unknown zeroing %q", *zeroing)
	}
	if zm == kernel.ZeroShred && mcMode != memctrl.SilentShredder {
		return usageErr(stderr, "replay", "shred zeroing requires -mode ss")
	}

	stopProf, err := profCfg.Start()
	if err != nil {
		return failed(stderr, err)
	}
	defer stopProf()
	f, err := os.Open(*in)
	if err != nil {
		return failed(stderr, err)
	}
	defer f.Close()
	m, err := machine(mcMode, zm, *scale)
	if err != nil {
		return failed(stderr, err)
	}
	n, err := trace.ReplayAll(f, m.Runtime(0))
	if err != nil {
		return failed(stderr, err)
	}
	m.Hier.FlushAll()
	m.MC.Flush()
	fmt.Fprintf(stdout, "replayed %d operations under mode=%s zeroing=%s\n", n, mcMode, zm)
	fmt.Fprintf(stdout, "  IPC:             %.4f\n", m.AggregateIPC())
	fmt.Fprintf(stdout, "  NVM writes:      %d\n", m.Dev.Writes())
	fmt.Fprintf(stdout, "  NVM reads:       %d\n", m.MC.DataReads())
	fmt.Fprintf(stdout, "  zero-fill reads: %d\n", m.MC.ZeroFillReads())
	fmt.Fprintf(stdout, "  shred commands:  %d\n", m.MC.ShredCommands())
	fmt.Fprintf(stdout, "  mean read lat:   %.1f cycles\n", m.MC.MeanReadLatency())
	return 0
}
