package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the program reads: the
// end-to-end metrics with their regression bounds.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(file string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(file)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", file, err)
	}
	if len(s.EndToEnd) == 0 {
		return s, fmt.Errorf("%s: no end_to_end metrics", file)
	}
	return s, nil
}

// checkRepeat prints, for every workload and end-to-end metric, the
// spread of its values across the repeated sets, (max-min)/median, next
// to its bound. The sets agree when every spread is within its bound and
// every digest and sim_* value is identical: those are simulated results
// and must repeat exactly.
func checkRepeat(w io.Writer, sets [][]result, spec benchSpec) bool {
	ok := true
	fmt.Fprintf(w, "== repeat: %d sets\n", len(sets))
	fmt.Fprintf(w, "   %-14s %-16s %12s %8s %s\n", "workload", "metric", "spread", "bound", "verdict")
	for i, first := range sets[0] {
		for _, set := range sets[1:] {
			if set[i].Digest != first.Digest {
				fmt.Fprintf(w, "   %-14s stats digest differs: %.16s vs %.16s\n", first.Workload, first.Digest, set[i].Digest)
				ok = false
			}
		}
		for _, e := range spec.EndToEnd {
			var vals []float64
			for _, set := range sets {
				for _, m := range set[i].EndToEnd {
					if m.Name == e.Name {
						vals = append(vals, m.Value)
					}
				}
			}
			if len(vals) != len(sets) {
				fmt.Fprintf(w, "   %-14s %-16s missing from %d of %d sets\n", first.Workload, e.Name, len(sets)-len(vals), len(sets))
				ok = false
				continue
			}
			lo, hi := vals[0], vals[0]
			for _, v := range vals {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			spread := 0.0
			if med := median(vals); med != 0 {
				spread = (hi - lo) / math.Abs(med)
			}
			verdict := "ok"
			switch {
			case strings.HasPrefix(e.Name, "sim_") && hi != lo:
				verdict, ok = "DIFFERS (simulated results must repeat exactly)", false
			case spread > e.Bound:
				verdict, ok = "EXCEEDS BOUND", false
			}
			fmt.Fprintf(w, "   %-14s %-16s %12.4f %8.3f %s\n", first.Workload, e.Name, spread, e.Bound, verdict)
		}
	}
	return ok
}
