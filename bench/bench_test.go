package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// smokeShrink divides every workload's input size so that the whole smoke
// test takes a few seconds.
const smokeShrink = 16

// smokeSet measures every workload once at the shrunken size with the
// minimum number of timed runs.
func smokeSet(t *testing.T, seed int64, trace bool) []result {
	t.Helper()
	o := options{seed: seed, trace: trace, outDir: t.TempDir(), shrink: smokeShrink}
	var set []result
	for _, w := range workloads {
		set = append(set, measure(w, o))
	}
	return set
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type fullSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadFullSpec(t *testing.T) fullSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s fullSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics requires got to hold exactly the metrics want names, with
// the same units.
func checkMetrics(t *testing.T, what string, got []metric, want []specMetric) {
	t.Helper()
	units := make(map[string]string, len(got))
	for _, m := range got {
		if _, dup := units[m.Name]; dup {
			t.Errorf("%s: %s emitted twice", what, m.Name)
		}
		units[m.Name] = m.Unit
	}
	for _, m := range want {
		unit, ok := units[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s is named in BENCHMARK.json but not emitted", what, m.Name)
		case unit != m.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, m.Name, unit, m.Unit)
		}
		delete(units, m.Name)
	}
	for name := range units {
		t.Errorf("%s: %s is emitted but not named in BENCHMARK.json", what, name)
	}
}

func TestSmoke(t *testing.T) {
	spec := loadFullSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	sort.Strings(names)
	sort.Strings(code)
	if len(names) != len(code) || len(names) == 0 {
		t.Fatalf("BENCHMARK.json names workloads %v, the program runs %v", names, code)
	}
	for i := range names {
		if names[i] != code[i] {
			t.Fatalf("BENCHMARK.json names workloads %v, the program runs %v", names, code)
		}
	}

	// The traced set checks every timed run's digest against the
	// reference, and the traced run's digest against the untraced one;
	// either mismatch counts as a failed run.
	traced := smokeSet(t, 1, true)
	again := smokeSet(t, 1, false)
	other := smokeSet(t, 2, false)
	for i, w := range workloads {
		for _, r := range []result{traced[i], again[i], other[i]} {
			if r.Failed != 0 || r.Attempted == 0 || r.Runs < minRuns {
				t.Errorf("%s seed %d: attempted %d, failed %d, timed runs %d: %v",
					w.name, r.Seed, r.Attempted, r.Failed, r.Runs, r.Errors)
			}
		}
		checkMetrics(t, w.name+" end-to-end", again[i].EndToEnd, spec.EndToEnd)
		checkMetrics(t, w.name+" per-layer", traced[i].PerLayer, spec.PerLayer)
		if a, b := traced[i], again[i]; a.Digest != b.Digest || a.InputHash != b.InputHash {
			t.Errorf("%s: two invocations with seed 1 disagree: digest %.12s vs %.12s, input %.12s vs %.12s",
				w.name, a.Digest, b.Digest, a.InputHash, b.InputHash)
		}
		if a, c := again[i], other[i]; a.Digest == c.Digest || a.InputHash == c.InputHash {
			t.Errorf("%s: seeds 1 and 2 produced the same inputs or the same statistics", w.name)
		}
	}

	// The last line of output carries exactly the four result keys, and
	// in trace mode the per-layer metrics.
	line, correct := summaryLine(traced[:1])
	var out map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatalf("summary line %q: %v", line, err)
	}
	if len(out) != 4 || out["correct"] == nil || out["attempted"] == nil || out["failed"] == nil || out["metrics"] == nil {
		t.Errorf("summary line has keys %v, want correct, attempted, failed and metrics", out)
	}
	var ms map[string]struct{ Value float64 }
	if err := json.Unmarshal(out["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if !correct || len(ms) != len(spec.PerLayer) {
		t.Errorf("traced summary: correct %v with %d metrics, want true with %d", correct, len(ms), len(spec.PerLayer))
	}
}
