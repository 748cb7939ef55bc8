package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/sim"
)

// exec runs the command in-process with captured streams.
func exec(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestGolden: the two-workload report must equal its committed golden
// byte for byte, and so must the report of the same run with span
// recording on — spans observe the machine, they must never perturb it.
// Regenerate after an intentional change with
//
//	go run ./cmd/shredsim -quick -scale 64 -cores 2 -parallel 2 -workload pagerank,mcf > testdata/golden/shredsim_quick.txt
func TestGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "shredsim_quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-quick", "-scale", "64", "-cores", "2", "-parallel", "2", "-workload", "pagerank,mcf"}
	spans := filepath.Join(t.TempDir(), "spans.csv")
	for _, args := range [][]string{args, append(args, "-obs-spans", spans)} {
		code, stdout, stderr := exec(t, args...)
		if code != 0 {
			t.Fatalf("run(%q) exited %d: %s", args, code, stderr)
		}
		if stdout != string(want) {
			t.Errorf("run(%q) differs from the golden: %s", args, firstDiff(string(want), stdout))
		}
	}
	if b, err := os.ReadFile(spans); err != nil || !bytes.Contains(b, []byte("pagerank")) || !bytes.Contains(b, []byte("mcf")) {
		t.Errorf("-obs-spans wrote %q (err %v), want a breakdown for both runs", b, err)
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

// TestSaveNVM: -save-nvm writes the run's memory state, two runs write
// the same bytes, and the checkpoint loads into a fresh machine.
func TestSaveNVM(t *testing.T) {
	dir := t.TempDir()
	var saves [][]byte
	var report string
	for _, name := range []string{"a.img", "b.img"} {
		path := filepath.Join(dir, name)
		code, stdout, stderr := exec(t, "-quick", "-scale", "64", "-cores", "2", "-workload", "pagerank", "-integrity", "-save-nvm", path)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
		if report != "" && stdout != report {
			t.Fatalf("reports differ between runs:\n%s\nthen\n%s", report, stdout)
		}
		report = stdout
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		saves = append(saves, b)
	}
	if !bytes.Equal(saves[0], saves[1]) {
		t.Fatal("two runs wrote different checkpoint bytes")
	}
	cfg := sim.ScaledConfig(memctrl.SilentShredder, kernel.ZeroShred, 64)
	cfg.Hier.Cores = 2
	cfg.MemCtrl.Integrity = true
	if err := sim.MustNew(cfg).LoadMemoryState(bytes.NewReader(saves[0])); err != nil {
		t.Fatal(err)
	}
}

// TestUsageErrors: a bad flag value or workload exits 2 with one line
// naming it, before any machine runs.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		bad  string // must appear in the diagnostic; "" = any diagnostic
	}{
		{[]string{"-no-such-flag"}, ""},
		{[]string{"mcf", "-quick"}, `"mcf"`},
		{[]string{"-workload", "pagerank,mfc"}, `"mfc"`},
		{[]string{"-workload", ","}, "no workload"},
		{[]string{"-mode", "fast"}, `"fast"`},
		{[]string{"-zeroing", "hot"}, `"hot"`},
		{[]string{"-mode", "baseline", "-zeroing", "shred"}, "-mode ss"},
		{[]string{"-cores", "0"}, "-cores 0"},
		{[]string{"-scale", "64", "-counter-cache", "5000"}, "-counter-cache 5000"},
		{[]string{"-integrity-engine", "lazy"}, `"lazy"`},
		{[]string{"-banks", "-4"}, "-banks -4"},
		{[]string{"-bank-queue", "-2"}, "-bank-queue -2"},
		{[]string{"-bank-drain", "-7"}, "-bank-drain -7"},
		{[]string{"-faults", "bogus"}, `"bogus"`},
		{[]string{"-shred-policy", "none"}, `"none"`},
		{[]string{"-check", "-faults", "42:stuck=1e-3"}, "-check"},
		{[]string{"-save-nvm", "f.img", "-workload", "pagerank,mcf"}, "-save-nvm"},
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
	if code, _, _ := exec(t, "-h"); code != 0 {
		t.Errorf("-h exited %d, want 0", code)
	}
}

func TestCheckMachine(t *testing.T) {
	for _, tc := range []struct {
		cores, scale, counterCache int
		ok                         bool
	}{
		{8, 8, 0, true},
		{1, 1, 0, true},
		{2, 2, 0, true},
		{2, 64, 0, true},
		{2, 64, 4096, true},
		{0, 8, 0, false},
		{-1, 8, 0, false},
		{8, 0, 0, false},
		{8, -4, 0, false},
		{0, 0, 0, false},
		// The directory tracks at most 8 cores.
		{9, 8, 0, false},
		{65, 64, 0, false},
		// Scales that are not powers of two leave caches with
		// fractional or non-power-of-two set counts.
		{2, 3, 0, false},
		{2, 6, 0, false},
		{2, 100, 0, false},
		// Counter-cache sizes that are not whole sets (5000 bytes) or
		// whose set count is not a power of two (24 sets).
		{2, 64, 5000, false},
		{2, 64, 12288, false},
	} {
		if err := checkMachine(tc.cores, tc.scale, tc.counterCache); (err == nil) != tc.ok {
			t.Errorf("checkMachine(%d, %d, %d) = %v, want ok=%v", tc.cores, tc.scale, tc.counterCache, err, tc.ok)
		}
	}
}
