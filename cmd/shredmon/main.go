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
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"

	"silentshredder/internal/exper"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/span"
	"silentshredder/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", ":9121", "listen address for /metrics and /healthz")
		workload = flag.String("workload", "pagerank", "workload(s) to loop, comma-separated")
		mode     = flag.String("mode", "ss", "memory controller: ss | baseline")
		cores    = flag.Int("cores", 2, "simulated cores per run, 1 to 8")
		scale    = flag.Int("scale", 64, "divide Table 1 cache capacities by this factor")
		quick    = flag.Bool("quick", false, "shrink the workloads")
		rounds   = flag.Int("rounds", 0, "stop after this many rounds over the workload list (0 = run until interrupted)")
		spans    = flag.Bool("spans", true, "attach a span recorder per run and export the latency-provenance metrics")
	)
	flag.Parse()
	if err := exper.CheckMachine(*cores, *scale); err != nil {
		fmt.Fprintf(os.Stderr, "shredmon: %v\n", err)
		os.Exit(2)
	}

	mcMode, zm := memctrl.SilentShredder, kernel.ZeroShred
	switch *mode {
	case "ss", "silent-shredder":
	case "baseline":
		mcMode, zm = memctrl.Baseline, kernel.ZeroNonTemporal
	default:
		fmt.Fprintf(os.Stderr, "shredmon: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	names := strings.Split(*workload, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}

	var pub telemetry.Publisher
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shredmon: %v\n", err)
		os.Exit(1)
	}
	go func() {
		if err := http.Serve(ln, telemetry.Handler(&pub)); err != nil {
			fmt.Fprintf(os.Stderr, "shredmon: %v\n", err)
			os.Exit(1)
		}
	}()
	fmt.Fprintf(os.Stderr, "shredmon: serving /metrics and /healthz on http://%s\n", ln.Addr())

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
				fmt.Fprintf(os.Stderr, "shredmon: %s: %v\n", name, err)
				os.Exit(1)
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
		}
		fmt.Fprintf(os.Stderr, "shredmon: round %d done (%d runs published)\n", round+1, len(names))
	}
}
