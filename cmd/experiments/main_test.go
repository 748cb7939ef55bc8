package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exec runs the command in-process with captured streams.
func exec(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// quick is the machine every golden was rendered on.
var quick = []string{"-quick", "-cores", "2", "-scale", "64"}

// TestGoldens is the determinism contract for the experiment figures:
// each row's stdout must equal its committed golden byte for byte at
// every listed sweep width. The merkle figure is rebuilt from the event
// bus, so it pins the trees' event streams too; the ciphertext row pins
// the DCW and DEUCE flips_per_write columns, which move if a single pad
// bit does; the cached-engine adversary row must print the eager
// matrix, since lazy root maintenance may move hash work, never
// detection outcomes. Regenerate a golden after an intentional change
// with `experiments -quick -cores 2 -scale 64 <args> 2>/dev/null`.
func TestGoldens(t *testing.T) {
	for _, row := range []struct {
		golden string
		args   []string
		widths []int
		// adversary rows render the attack matrix, which takes over a
		// minute under the race detector, so that build skips them.
		adversary bool
	}{
		{"experiments_quick.txt", []string{"table2", "fig5"}, []int{1, 4}, false},
		{"experiments_banks.txt", []string{"banks"}, []int{1, 4}, false},
		{"experiments_merkle.txt", []string{"merkle"}, []int{1, 4}, false},
		{"experiments_latency.txt", []string{"latency"}, []int{1, 4}, false},
		{"experiments_ciphertext.txt", []string{"ablation-dcw", "ablation-deuce"}, []int{1, 4}, false},
		{"experiments_adversary.txt", []string{"adversary"}, []int{1, 4}, true},
		{"experiments_adversary.txt", []string{"-integrity-engine", "cached", "adversary"}, []int{1}, true},
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", row.golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range row.widths {
			name := fmt.Sprintf("%s/parallel=%d", strings.Join(row.args, " "), width)
			t.Run(name, func(t *testing.T) {
				if row.adversary && raceDetector {
					t.Skip("renders the adversary matrix, too slow under -race")
				}
				args := append(append(quick[:len(quick):len(quick)], "-parallel", fmt.Sprint(width)), row.args...)
				code, stdout, stderr := exec(t, args...)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr)
				}
				if stdout != string(want) {
					t.Errorf("stdout differs from %s: %s", row.golden, firstDiff(string(want), stdout))
				}
			})
		}
	}
}

// TestEveryExperimentRuns names all and every experiment all leaves out
// in one invocation, so each registry entry runs once.
func TestEveryExperimentRuns(t *testing.T) {
	if raceDetector {
		t.Skip("renders the adversary matrix, too slow under -race")
	}
	args := append(quick[:len(quick):len(quick)], "-parallel", "2", "-workloads", "pagerank,mcf", "-obs-epoch-out", filepath.Join(t.TempDir(), "epochs.csv"))
	var names []string
	for _, e := range registry {
		if !e.inAll {
			names = append(names, e.name)
		}
	}
	code, stdout, stderr := exec(t, append(append(args, "all"), names...)...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, title := range []string{"Table 1:", "Summary:", "Fault sweep", "Crash"} {
		if !strings.Contains(stdout, title) {
			t.Errorf("stdout lacks %q", title)
		}
	}
}

// TestUsageErrors: a bad experiment name, flag value or workload exits 2
// with one line naming it, before any experiment prints.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		bad  string // must appear in the diagnostic; "" = any diagnostic
	}{
		{nil, ""},
		{[]string{"-no-such-flag", "table1"}, ""},
		{[]string{"-quick", "-cores", "2", "-scale", "64", "table1", "bogus"}, `"bogus"`},
		{[]string{"timeseries", "-obs-epoch-out", "f.csv"}, `"-obs-epoch-out"`},
		{[]string{"-format", "xml", "export"}, `"xml"`},
		{[]string{"-workloads", "mfc", "fig8"}, `"mfc"`},
		{[]string{"-cores", "9", "table1"}, "-cores 9"},
		{[]string{"-scale", "3", "table1"}, "-scale 3"},
		{[]string{"-integrity-engine", "lazy", "table1"}, `"lazy"`},
		{[]string{"-banks", "-4", "table2"}, "-banks -4"},
		{[]string{"-bank-queue", "-2", "table2"}, "-bank-queue -2"},
		{[]string{"-bank-drain", "-7", "table2"}, "-bank-drain -7"},
	} {
		code, stdout, stderr := exec(t, tc.args...)
		if code != 2 {
			t.Errorf("run(%q) = %d, want 2", tc.args, code)
		}
		if stdout != "" {
			t.Errorf("run(%q) printed to stdout before failing:\n%s", tc.args, stdout)
		}
		if tc.bad == "" {
			if stderr == "" {
				t.Errorf("run(%q) printed no diagnostic", tc.args)
			}
		} else if !strings.Contains(stderr, tc.bad) || strings.Count(stderr, "\n") != 1 {
			t.Errorf("run(%q) diagnostic %q, want one line naming %s", tc.args, stderr, tc.bad)
		}
	}
	if code, _, stderr := exec(t, "-h"); code != 0 || !strings.Contains(stderr, "timeseries") {
		t.Errorf("-h exited %d with usage %q, want 0 and the experiment list", code, stderr)
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
