package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestUsageErrors: a bad invocation exits 2 with one line on stderr
// before it creates a file. Every row names an -out and a -cpuprofile in
// an empty directory, which must stay empty, and replay rows name an -in
// that does not exist, which a run that opened it first would report
// with exit 1.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"bogus"},
		{"record", "-workload", "gccc"},
		{"record", "-out", ""},
		{"record", "-scale", "3"},
		{"record", "-scale", "0"},
		{"record", "stray"},
		{"replay", "-mode", "bogus"},
		{"replay", "-zeroing", "bogus"},
		{"replay", "-mode", "baseline", "-zeroing", "shred"},
		{"replay", "-in", ""},
		{"replay", "-scale", "-8"},
		{"replay", "stray"},
	} {
		dir := t.TempDir()
		full := args
		switch {
		case len(args) == 0:
		case args[0] == "record":
			full = append([]string{"record", "-out", filepath.Join(dir, "x.trace"), "-cpuprofile", filepath.Join(dir, "cpu.prof")}, args[1:]...)
		case args[0] == "replay":
			full = append([]string{"replay", "-in", filepath.Join(dir, "missing.trace"), "-cpuprofile", filepath.Join(dir, "cpu.prof")}, args[1:]...)
		}
		var stdout, stderr bytes.Buffer
		code := run(full, &stdout, &stderr)
		if code != 2 || strings.Count(stderr.String(), "\n") != 1 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d, stdout %q, stderr %q; want 2 and one stderr line", args, code, stdout.String(), stderr.String())
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 0 {
			t.Errorf("run(%q) created %s", args, ents[0].Name())
		}
	}
}

// TestRuntimeFailure: a trace that cannot be opened is a runtime
// failure, exit 1, and the deferred profile stop still writes the CPU
// profile.
func TestRuntimeFailure(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.prof")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"replay", "-in", filepath.Join(dir, "missing.trace"), "-cpuprofile", prof}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1: %s", code, stderr.String())
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Fatalf("CPU profile not finalized: %v", err)
	}
}

// TestRecordReplayRoundTrip: a recorded trace replays every operation
// it recorded.
func TestRecordReplayRoundTrip(t *testing.T) {
	file := filepath.Join(t.TempDir(), "gcc.trace")
	count := func(pattern string, args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%q) = %d: %s", args, code, stderr.String())
		}
		m := regexp.MustCompile(pattern).FindStringSubmatch(stdout.String())
		if m == nil {
			t.Fatalf("run(%q) printed %q, want a match for %q", args, stdout.String(), pattern)
		}
		return m[1]
	}
	recorded := count(`^recorded (\d+) operations`, "record", "-workload", "gcc", "-scale", "64", "-out", file)
	replayed := count(`^replayed (\d+) operations`, "replay", "-in", file, "-scale", "64", "-mode", "baseline")
	if recorded != replayed || recorded == "0" {
		t.Fatalf("recorded %s operations, replayed %s", recorded, replayed)
	}
}
