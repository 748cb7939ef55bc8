package exper

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"silentshredder/internal/adversary"
	"silentshredder/internal/integrity"
	"silentshredder/internal/obs"
)

// TestIntegrityGoldens renders the integrity figures exactly as
// `experiments -quick -cores 2 -scale 64 merkle` and `... latency` print
// them, and the ciphertext-dependent ablations as `... ablation-dcw
// ablation-deuce` print them, and compares the text byte for byte with
// the committed goldens, at one and four sweep workers, so `go test`
// catches drift in any modeled integrity number and in any figure
// computed from ciphertext bits (the DCW and DEUCE flips_per_write
// columns, which move if a single pad bit does). The merkle figure is
// rebuilt from the event bus, so its rows pin the trees' event streams
// too. The last row renders `... -integrity-engine cached adversary`,
// which must print the eager adversary golden: lazy root maintenance
// may move hash work, never detection outcomes. `make telemetry` checks
// the latency file through the CLI as well.
func TestIntegrityGoldens(t *testing.T) {
	// One render of the full adversary matrix takes over a minute under
	// the race detector, so that build skips the cached-tree row.
	adversaryWidths := []int{1}
	if raceDetector {
		adversaryWidths = nil
	}
	figures := []struct {
		name, golden string
		widths       []int
		render       func(o Options) (string, error)
	}{
		{"merkle", "merkle", []int{1, 4}, func(o Options) (string, error) {
			rows, err := MerkleSweep(o, 42, obs.DefaultRingCap)
			if err != nil {
				return "", err
			}
			return fmt.Sprintln(MerkleTable(rows)) + fmt.Sprintln(MerkleLevelTable(rows)), nil
		}},
		{"latency", "latency", []int{1, 4}, func(o Options) (string, error) {
			rows, err := LatencySweep(o)
			if err != nil {
				return "", err
			}
			return fmt.Sprintln(LatencyTable(rows)), nil
		}},
		{"ciphertext", "ciphertext", []int{1, 4}, func(o Options) (string, error) {
			return fmt.Sprintln(AblationDCWTable(AblationDCW(o))) + fmt.Sprintln(AblationDeuceTable(AblationDeuce(o))), nil
		}},
		{"adversary-cached", "adversary", adversaryWidths, func(o Options) (string, error) {
			o.IntegrityEngine = integrity.DefaultDirtyCacheNodes
			rows, err := AdversaryMatrix(o, 42, adversary.AllAttackers())
			if err != nil {
				return "", err
			}
			return fmt.Sprintln(AdversaryTable(rows)), nil
		}},
	}
	for _, f := range figures {
		golden := filepath.Join("..", "..", "testdata", "golden", "experiments_"+f.golden+".txt")
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		for _, parallel := range f.widths {
			got, err := f.render(Options{Cores: 2, Scale: 64, Quick: true, Parallel: parallel})
			if err != nil {
				t.Fatalf("%s at parallel %d: %v", f.name, parallel, err)
			}
			if got != string(want) {
				t.Errorf("%s at parallel %d differs from %s: %s", f.name, parallel, golden, firstDiff(string(want), got))
			}
		}
	}
}

// firstDiff names the first line where got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\nwant %q\ngot  %q", i+1, wl, gl)
		}
	}
	return "no line differs"
}
