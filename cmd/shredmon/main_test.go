package main

import (
	"bytes"
	"net"
	"regexp"
	"strings"
	"testing"
)

// TestUsageErrors: a bad flag value exits 2 with one line on stderr
// before anything listens. The test holds the -addr port itself, so a
// run that listened first would fail to bind and exit 1 instead.
func TestUsageErrors(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	for _, args := range [][]string{
		{"-workload", "pagerank,mfc"},
		{"-mode", "bogus"},
		{"-cores", "9"},
		{"-rounds", "-1"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-quick", "-rounds", "1", "-addr", held.Addr().String()}, args...), &stdout, &stderr)
		if code != 2 || strings.Count(stderr.String(), "\n") != 1 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d, stdout %q, stderr %q; want 2 and one stderr line", args, code, stdout.String(), stderr.String())
		}
	}
}

// TestRoundsExit: with -rounds 1 the monitor serves, runs one round,
// exits 0 and closes its listener.
func TestRoundsExit(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-rounds", "1", "-addr", "127.0.0.1:0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	m := regexp.MustCompile(`serving /metrics and /healthz on http://(\S+)\n`).FindStringSubmatch(stderr.String())
	if m == nil || !strings.Contains(stderr.String(), "round 1 done (1 runs published)") {
		t.Fatalf("stderr %q", stderr.String())
	}
	ln, err := net.Listen("tcp", m[1])
	if err != nil {
		t.Fatalf("listener %s still open after exit: %v", m[1], err)
	}
	ln.Close()
}
