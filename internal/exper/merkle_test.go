package exper

import (
	"reflect"
	"strings"
	"testing"

	"silentshredder/internal/adversary"
	"silentshredder/internal/integrity"
)

// TestMerkleSweep pins the sweep's headline claims: both engines end on
// the same root, the cached engine cuts hash traffic by at least the 3x
// the PR promises, the per-level figure accounts for every hash op, and
// the rows are byte-identical at any worker count (the golden gate's
// determinism contract).
func TestMerkleSweep(t *testing.T) {
	o := Options{Quick: true, Scale: 64, Parallel: 1}
	rows, err := MerkleSweep(o, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Engine != "eager" || rows[1].Engine != "cached" {
		t.Fatalf("want [eager cached] rows, got %+v", rows)
	}
	eager, cached := rows[0], rows[1]
	if eager.Root != cached.Root {
		t.Fatalf("final roots diverge: %s vs %s", eager.Root, cached.Root)
	}
	if eager.Updates != cached.Updates || eager.Verifies != cached.Verifies {
		t.Fatalf("engines saw different traffic: %+v vs %+v", eager, cached)
	}
	if cached.HashOps*3 >= eager.HashOps {
		t.Fatalf("coalescing below the 3x bar: cached %d vs eager %d hash ops",
			cached.HashOps, eager.HashOps)
	}
	if eager.FlushOps != 0 {
		t.Fatalf("eager engine reported %d flush ops, want 0", eager.FlushOps)
	}
	for _, r := range rows {
		var sum uint64
		for _, h := range r.PerLevel {
			sum += h
		}
		if sum != r.HashOps {
			t.Fatalf("%s: per-level figure accounts for %d hashes, engine says %d",
				r.Engine, sum, r.HashOps)
		}
	}

	par := o
	par.Parallel = 4
	if got, err := MerkleSweep(par, 42, 0); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(rows, got) {
		t.Fatalf("sweep diverged across worker counts:\n%+v\n%+v", rows, got)
	}

	table := MerkleTable(rows).String()
	for _, want := range []string{"engine", "hash_ops", "root8", "eager", "cached"} {
		if !strings.Contains(table, want) {
			t.Errorf("summary table missing %q:\n%s", want, table)
		}
	}
	if lvl := MerkleLevelTable(rows).String(); !strings.Contains(lvl, "eager_hashes") ||
		!strings.Contains(lvl, "cached_hashes") {
		t.Errorf("level table missing engine columns:\n%s", lvl)
	}
}

// TestMerkleRunRingWrap: an event ring too small for the figure must
// come back as an actionable error (PR 10 turned the old panic into
// this), naming -obs-ring and a capacity that would have sufficed.
func TestMerkleRunRingWrap(t *testing.T) {
	o := Options{Quick: true, Scale: 64, Parallel: 1}.normalized()
	w := merkleWorkload(o, 42)
	_, err := merkleRun(o, w, 0, 64)
	if err == nil {
		t.Fatal("merkleRun with a 64-event ring reported no wrap")
	}
	for _, want := range []string{"-obs-ring", "dropped", "128"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("wrap error missing %q: %v", want, err)
		}
	}
	// The sweep entry point clamps tiny capacities up to the working
	// minimum instead of failing.
	if _, err := MerkleSweep(o, 42, 64); err != nil {
		t.Errorf("MerkleSweep did not clamp a tiny ring: %v", err)
	}
}

// TestAdversaryMatrixEngineInvariance: swapping the integrity engine must
// not change a single cell of the adversary matrix — detection is a
// property of what the root authenticates, never of when the hash work
// happened. This is the sweep-level form of the replay-detection
// equivalence the integrity package proves per operation.
func TestAdversaryMatrixEngineInvariance(t *testing.T) {
	attacks := []adversary.Attacker{adversary.AttackReplay}
	eager, err := AdversaryMatrix(Options{Parallel: 2}, 42, attacks)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := AdversaryMatrix(Options{Parallel: 2, IntegrityEngine: integrity.DefaultDirtyCacheNodes}, 42, attacks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eager, cached) {
		t.Fatalf("adversary matrix depends on the integrity engine:\neager:  %+v\ncached: %+v", eager, cached)
	}
}
