// Command shredmon is the live telemetry monitor: it brings up the
// /metrics and /healthz endpoints first, then runs the configured
// workloads in a continuous loop — one fresh machine per round — and
// republishes every run's statistics registry and latency-provenance
// aggregate after each round. Scrape it with Prometheus (or curl) while
// the simulations run:
//
//	shredmon -addr :9121 -workload pagerank,mcf -quick &
//	curl -s localhost:9121/metrics | grep shredsim_span
//
// Unlike shredsim -serve (which publishes one finished run and then
// serves), shredmon keeps simulating: the exported counters move
// between scrapes, which is what makes the endpoint live. The
// simulation loop is sequential and deterministic; only the publishing
// instant depends on wall-clock scrape timing.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"

	"silentshredder/internal/exper"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/span"
	"silentshredder/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args and rejects any bad
// value before it listens, then serves while it runs the rounds, and
// returns the exit code (0 after -rounds rounds, 1 on a listen, serve or
// run failure, 2 on a usage error). The listener is closed on return.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shredmon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":9121", "listen address for /metrics and /healthz")
		workload = fs.String("workload", "pagerank", "workload(s) to loop, comma-separated")
		mode     = fs.String("mode", "ss", "memory controller: ss | baseline")
		cores    = fs.Int("cores", 2, "simulated cores per run, 1 to 8")
		scale    = fs.Int("scale", 64, "divide Table 1 cache capacities by this factor")
		quick    = fs.Bool("quick", false, "shrink the workloads")
		rounds   = fs.Int("rounds", 0, "stop after this many rounds over the workload list (0 = run until interrupted)")
		spans    = fs.Bool("spans", true, "attach a span recorder per run and export the latency-provenance metrics")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usageErr := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "shredmon: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usageErr("unexpected argument %q (workloads go in -workload, flags before any argument)", fs.Arg(0))
	}
	if err := exper.CheckMachine(*cores, *scale); err != nil {
		return usageErr("%v", err)
	}
	if *rounds < 0 {
		return usageErr("-rounds %d: want 0 or more", *rounds)
	}
	mcMode, zm := memctrl.SilentShredder, kernel.ZeroShred
	switch *mode {
	case "ss", "silent-shredder":
	case "baseline":
		mcMode, zm = memctrl.Baseline, kernel.ZeroNonTemporal
	default:
		return usageErr("unknown mode %q", *mode)
	}
	names, err := exper.ParseWorkloads(*workload)
	if err != nil {
		return usageErr("%v", err)
	}
	if len(names) == 0 {
		return usageErr("no workload given")
	}

	var pub telemetry.Publisher
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "shredmon: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: telemetry.Handler(&pub)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer srv.Close()
	fmt.Fprintf(stderr, "shredmon: serving /metrics and /healthz on http://%s\n", ln.Addr())

	o := exper.Options{Cores: *cores, Scale: *scale, Quick: *quick, Parallel: 1}
	samples := make([]telemetry.Sample, len(names))
	for round := 0; *rounds == 0 || round < *rounds; round++ {
		for i, name := range names {
			var rec *span.Recorder
			if *spans {
				rec = span.NewRecorder(span.Config{})
			}
			m, err := exper.RunWorkloadTweaked(o, name, mcMode, zm, exper.MachineTweaks{Spans: rec})
			if err != nil {
				fmt.Fprintf(stderr, "shredmon: %s: %v\n", name, err)
				return 1
			}
			s := telemetry.Sample{
				Run: name, Cycles: m.MaxCycles(), Instructions: m.TotalInstructions(),
				IPC: m.AggregateIPC(), Snap: m.Snapshot(),
			}
			if rec != nil {
				s.Spans = rec.Aggregate()
			}
			samples[i] = s
			// Publish a fresh slice each time: the previous one may be
			// mid-render in a scrape handler.
			pub.Publish(append([]telemetry.Sample(nil), samples...))
			select {
			case err := <-served:
				fmt.Fprintf(stderr, "shredmon: %v\n", err)
				return 1
			default:
			}
		}
		fmt.Fprintf(stderr, "shredmon: round %d done (%d runs published)\n", round+1, len(names))
	}
	return 0
}
