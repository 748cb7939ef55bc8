package exper

import (
	"reflect"
	"strings"
	"testing"

	"silentshredder/internal/adversary"
)

// TestAdversaryMatrixParallelDeterminism: the matrix must come back in
// canonical row order with identical contents for any worker count —
// the property the adversary rows of cmd/experiments TestGoldens rely on.
func TestAdversaryMatrixParallelDeterminism(t *testing.T) {
	attacks := []adversary.Attacker{adversary.AttackReplay}
	seq, err := AdversaryMatrix(Options{Parallel: 1}, 42, attacks)
	if err != nil {
		t.Fatal(err)
	}
	par, err := AdversaryMatrix(Options{Parallel: 4}, 42, attacks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("matrix diverged across worker counts:\n%+v\n%+v", seq, par)
	}
	if len(seq) != 9 {
		t.Fatalf("matrix has %d rows, want 9", len(seq))
	}
	// Canonical order: personalities weakest first, policies cheapest
	// first within each.
	if seq[0].Personality != "plain" || seq[0].Policy != "zero-cost" ||
		seq[8].Personality != "merkle" || seq[8].Policy != "multi-pass" {
		t.Fatalf("rows out of canonical order: first=%s/%s last=%s/%s",
			seq[0].Personality, seq[0].Policy, seq[8].Personality, seq[8].Policy)
	}

	table := AdversaryTable(seq).String()
	for _, want := range []string{"personality", "replay_B", "detected", "LEAKED"} {
		if !strings.Contains(table, want) {
			t.Errorf("rendered table missing %q:\n%s", want, table)
		}
	}
	// Unselected attackers render as placeholders, not zeros.
	if !strings.Contains(table, "-") {
		t.Error("unselected attacker columns must render as placeholders")
	}
}
