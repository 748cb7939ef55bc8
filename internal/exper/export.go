package exper

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strconv"
)

// ResultsCSV renders comparison results as CSV (one row per benchmark),
// for plotting the figures outside the CLI.
func ResultsCSV(results []Result) (string, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	header := []string{
		"benchmark", "baseline_writes", "ss_writes", "write_savings",
		"ss_nvm_reads", "ss_zero_fill_reads", "read_savings",
		"baseline_read_lat_cy", "ss_read_lat_cy", "read_speedup",
		"baseline_ipc", "ss_ipc", "relative_ipc",
	}
	if err := w.Write(header); err != nil {
		return "", fmt.Errorf("exper: csv: %w", err)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for _, r := range results {
		rec := []string{
			r.Name, u(r.BaselineWrites), u(r.SSWrites), f(r.WriteSavings),
			u(r.SSDataReads), u(r.SSZeroFills), f(r.ReadSavings),
			f(r.BaselineRdLat), f(r.SSRdLat), f(r.ReadSpeedup),
			f(r.BaselineIPC), f(r.SSIPC), f(r.RelativeIPC),
		}
		if err := w.Write(rec); err != nil {
			return "", fmt.Errorf("exper: csv: %w", err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return "", fmt.Errorf("exper: csv: %w", err)
	}
	return buf.String(), nil
}

// ResultsJSON renders comparison results as indented JSON.
func ResultsJSON(results []Result) ([]byte, error) {
	out, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("exper: json: %w", err)
	}
	return out, nil
}
