package exper

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"silentshredder/internal/obs"
)

// TestIntegrityGoldens renders the integrity figures exactly as
// `experiments -quick -cores 2 -scale 64 merkle` and `... latency` print
// them, and the ciphertext-dependent ablations as `... ablation-dcw
// ablation-deuce` print them, and compares the text byte for byte with
// the committed goldens, at one and four sweep workers, so `go test`
// catches drift in any modeled integrity number and in any figure
// computed from ciphertext bits (the DCW and DEUCE flips_per_write
// columns, which move if a single pad bit does). `make merkle` and `make
// telemetry` check the first two files through the CLI.
func TestIntegrityGoldens(t *testing.T) {
	figures := []struct {
		name   string
		render func(o Options) (string, error)
	}{
		{"merkle", func(o Options) (string, error) {
			rows, err := MerkleSweep(o, 42, obs.DefaultRingCap)
			if err != nil {
				return "", err
			}
			return fmt.Sprintln(MerkleTable(rows)) + fmt.Sprintln(MerkleLevelTable(rows)), nil
		}},
		{"latency", func(o Options) (string, error) {
			rows, err := LatencySweep(o)
			if err != nil {
				return "", err
			}
			return fmt.Sprintln(LatencyTable(rows)), nil
		}},
		{"ciphertext", func(o Options) (string, error) {
			return fmt.Sprintln(AblationDCWTable(AblationDCW(o))) + fmt.Sprintln(AblationDeuceTable(AblationDeuce(o))), nil
		}},
	}
	for _, f := range figures {
		golden := filepath.Join("..", "..", "testdata", "golden", "experiments_"+f.name+".txt")
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		for _, parallel := range []int{1, 4} {
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
