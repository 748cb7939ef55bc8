package exper

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// ParseResultsJSON decodes results previously written by ResultsJSON
// (the round trip the tests check).
func ParseResultsJSON(data []byte) ([]Result, error) {
	var out []Result
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("exper: json: %w", err)
	}
	return out, nil
}

func sampleResults() []Result {
	return []Result{
		{Name: "gcc", BaselineWrites: 100, SSWrites: 40, WriteSavings: 0.6,
			SSDataReads: 10, SSZeroFills: 30, ReadSavings: 0.75,
			BaselineRdLat: 160, SSRdLat: 40, ReadSpeedup: 4,
			BaselineIPC: 0.2, SSIPC: 0.22, RelativeIPC: 1.1},
		{Name: "mcf", BaselineWrites: 200, SSWrites: 120, WriteSavings: 0.4},
	}
}

func TestResultsCSV(t *testing.T) {
	out, err := ResultsCSV(sampleResults())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "benchmark,baseline_writes") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "gcc,100,40,0.600000") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestResultsJSONRoundTrip(t *testing.T) {
	in := sampleResults()
	data, err := ResultsJSON(in)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseResultsJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(in) || back[0] != in[0] || back[1] != in[1] {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if _, err := ParseResultsJSON([]byte("not json")); err == nil {
		t.Fatal("bad json accepted")
	}
}
