package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/sim"
)

// exec runs the CLI entry point with captured streams.
func exec(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestUsageErrors: malformed invocations exit 2 with a diagnostic, never
// 0 (silently ignored) or 1 (confused with a real leak).
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-format", "xml", "-attack", "all"},
		{"-attack", "evil"},
		{"-attack", "all", "-personality", "armored"},
		{"-attack", "all", "-policy", "shred-harder"},
		{"-no-such-flag"},
		{"-crash", "2", "-scale", "3"},
		{"-crash", "2", "-scale", "0"},
		{"-crash", "2", "-scale", "-8"},
	} {
		code, _, stderr := exec(t, args...)
		if code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if stderr == "" {
			t.Errorf("run(%q) printed no diagnostic", args)
		}
	}
}

// TestAttackExitCodes: exit 1 exactly when an attacker recovered bytes.
func TestAttackExitCodes(t *testing.T) {
	code, stdout, _ := exec(t, "-attack", "replay", "-personality", "merkle")
	if code != 0 {
		t.Fatalf("merkle defender exited %d, want 0:\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "DETECTED") {
		t.Errorf("merkle narration missing detection:\n%s", stdout)
	}

	code, stdout, _ = exec(t, "-attack", "replay", "-personality", "encrypted")
	if code != 1 {
		t.Fatalf("vulnerable defender exited %d, want 1:\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "ATTACK SUCCEEDED") {
		t.Errorf("leak narration missing:\n%s", stdout)
	}

	code, stdout, _ = exec(t, "-attack", "replay", "-personality", "encrypted", "-policy", "duty-to-delete")
	if code != 0 {
		t.Fatalf("scrubbed defender exited %d, want 0:\n%s", code, stdout)
	}
}

// TestAttackJSONGolden: the machine-readable report is byte-stable — the
// committed golden is the adversarial matrix's CLI contract. Regenerate
// with:
//
//	go run ./cmd/leakscan -attack replay -personality encrypted -format json > cmd/leakscan/testdata/attack_replay_encrypted.json
func TestAttackJSONGolden(t *testing.T) {
	code, stdout, _ := exec(t, "-attack", "replay", "-personality", "encrypted", "-format", "json")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "attack_replay_encrypted.json"))
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("JSON report drifted from golden:\n got: %s\nwant: %s", stdout, want)
	}
}

// TestImageScan: an unencrypted DIMM image leaks its plaintext to the
// scanner; the same contents behind counter-mode encryption scan clean.
// TestImageScan: a plaintext image leaks the secret and an encrypted
// one does not. The secret sits on 16 pages, and repeated scans must
// report the leaking pages identically, in ascending order.
func TestImageScan(t *testing.T) {
	const secret = "BEGIN RSA PRIVATE KEY"
	const secretPages = 16
	dir := t.TempDir()

	save := func(name string, disableEnc bool) string {
		cfg := sim.ScaledConfig(memctrl.SilentShredder, kernel.ZeroShred, 64)
		cfg.Hier.Cores = 1
		cfg.StoreData = true
		cfg.MemCtrl.DisableEncryption = disableEnc
		m := sim.MustNew(cfg)
		rt := m.Runtime(0)
		va := rt.Malloc(secretPages * addr.PageSize)
		for i := 0; i < secretPages; i++ {
			rt.StoreBytes(va+addr.Virt(i*addr.PageSize), []byte(secret))
		}
		m.Hier.FlushAll()
		m.MC.Flush()
		p := filepath.Join(dir, name)
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := m.SaveMemoryState(f); err != nil {
			t.Fatal(err)
		}
		return p
	}

	plain := save("plain.img", true)
	code, stdout, _ := exec(t, "-image", plain, "-pattern", secret)
	if code != 1 || !strings.Contains(stdout, "LEAK") {
		t.Errorf("plaintext image: exit %d, out:\n%s", code, stdout)
	}
	code, stdout, _ = exec(t, "-image", plain, "-pattern", secret, "-format", "json")
	if code != 1 || !strings.Contains(stdout, `"clean": false`) {
		t.Errorf("plaintext image json: exit %d, out:\n%s", code, stdout)
	}
	var rep imageReport
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.LeakPages) != secretPages || !slices.IsSorted(rep.LeakPages) {
		t.Errorf("leak_pages = %v, want %d pages in ascending order", rep.LeakPages, secretPages)
	}
	for _, format := range []string{"json", "text"} {
		_, first, _ := exec(t, "-image", plain, "-pattern", secret, "-entropy", "-format", format)
		for i := 0; i < 2; i++ {
			if _, again, _ := exec(t, "-image", plain, "-pattern", secret, "-entropy", "-format", format); again != first {
				t.Fatalf("%s scans differ between runs:\n%s\nthen\n%s", format, first, again)
			}
		}
	}

	enc := save("enc.img", false)
	code, stdout, _ = exec(t, "-image", enc, "-pattern", secret)
	if code != 0 || !strings.Contains(stdout, "not found") {
		t.Errorf("encrypted image: exit %d, out:\n%s", code, stdout)
	}
}

// TestCrashScanJSON: the -crash mode's report stays clean and
// well-formed through the run() seam.
func TestCrashScanJSON(t *testing.T) {
	code, stdout, stderr := exec(t, "-crash", "2", "-seed", "42", "-format", "json")
	if code != 0 {
		t.Fatalf("crash scan exited %d: %s", code, stderr)
	}
	for _, want := range []string{`"clean": true`, `"leaks": 0`, `"quiescence": true`} {
		if !strings.Contains(stdout, want) {
			t.Errorf("crash report missing %s:\n%s", want, stdout)
		}
	}
}
