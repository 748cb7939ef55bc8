package exper

import (
	"testing"

	"silentshredder/internal/span"
)

func latencyTestOptions() Options {
	return Options{Cores: 1, Scale: 8, Quick: true, Parallel: 1}
}

// TestLatencySweepShape checks the figure's core claim: the baseline's
// page clear pays pad and device cycles, Silent Shredder's pays neither
// — its shred cost is counter-cache and integrity-tree work only.
func TestLatencySweepShape(t *testing.T) {
	rows, err := LatencySweep(latencyTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	base, ss := rows[0], rows[1]
	if base.Config != "baseline-ntzero" || ss.Config != "silent-shredder" {
		t.Fatalf("config order = %q, %q", base.Config, ss.Config)
	}

	zero := &base.Agg.Total[span.OpZero]
	if zero.Count == 0 {
		t.Fatal("baseline recorded no zero spans")
	}
	if base.Agg.Total[span.OpShred].Count != 0 {
		t.Error("baseline recorded shred spans")
	}
	if zero.Seg[span.LayerDevice] == 0 {
		t.Error("baseline zero spans show no device cycles")
	}
	if zero.Seg[span.LayerIntegrity] == 0 {
		t.Error("baseline zero spans show no integrity cycles")
	}

	shred := &ss.Agg.Total[span.OpShred]
	if shred.Count == 0 {
		t.Fatal("silent shredder recorded no shred spans")
	}
	if ss.Agg.Total[span.OpZero].Count != 0 {
		t.Error("silent shredder recorded zero spans")
	}
	// The shred writes nothing: its only device traffic is the counter
	// fetch on a cache miss (one block read per page, versus the
	// baseline's 64 block writes), and it never touches the pad unit.
	if 64*shred.Seg[span.LayerDevice] > zero.Seg[span.LayerDevice] {
		t.Errorf("shred device cycles not collapsed: shred=%d zero=%d",
			shred.Seg[span.LayerDevice], zero.Seg[span.LayerDevice])
	}
	if shred.Seg[span.LayerPad] != 0 {
		t.Errorf("shred spans show %d pad cycles, want 0", shred.Seg[span.LayerPad])
	}
	if shred.Seg[span.LayerCtrCache]+shred.Seg[span.LayerIntegrity] == 0 {
		t.Error("shred spans show no counter/integrity cycles")
	}
	// One counter update per page versus the baseline's 64: the
	// integrity busy cycles collapse with it.
	if 8*shred.Seg[span.LayerIntegrity] > zero.Seg[span.LayerIntegrity] {
		t.Errorf("shred integrity cycles not collapsed: shred=%d zero=%d",
			shred.Seg[span.LayerIntegrity], zero.Seg[span.LayerIntegrity])
	}

	// Same clears on both sides, and the shred must be cheaper even on
	// the critical path (the baseline's posted write queue hides most
	// of its device traffic from the clear's own latency — the stolen
	// bandwidth resurfaces in the read rows below).
	if zero.Count != shred.Count {
		t.Errorf("clear counts differ: zero=%d shred=%d", zero.Count, shred.Count)
	}
	if shred.Cycles >= zero.Cycles {
		t.Errorf("shred not cheaper: shred=%d zero=%d cycles", shred.Cycles, zero.Cycles)
	}

	// The paper's read-speedup claim in provenance form: baseline reads
	// queue behind zeroing write bursts (bank_wait, device), Silent
	// Shredder's reads of shredded blocks skip the device entirely.
	baseRd := &base.Agg.Total[span.OpRead]
	ssRd := &ss.Agg.Total[span.OpRead]
	if baseRd.Count != ssRd.Count {
		t.Errorf("read counts differ: base=%d ss=%d", baseRd.Count, ssRd.Count)
	}
	baseMean := float64(baseRd.Cycles) / float64(baseRd.Count)
	ssMean := float64(ssRd.Cycles) / float64(ssRd.Count)
	if ssMean >= baseMean {
		t.Errorf("no read speedup: base mean %.1f, ss mean %.1f", baseMean, ssMean)
	}

	// Both runs flush the tree through the span-wrapped barrier.
	for _, r := range rows {
		if r.Agg.Total[span.OpMerkleFlush].Count == 0 {
			t.Errorf("%s: no merkle_flush spans", r.Config)
		}
		if r.Agg.Total[span.OpRead].Count == 0 || r.Agg.Total[span.OpWrite].Count == 0 {
			t.Errorf("%s: missing read/write spans", r.Config)
		}
	}
}

// TestLatencySweepDeterminism pins the byte-identity contract: the
// rendered table must not change with the sweep worker count.
func TestLatencySweepDeterminism(t *testing.T) {
	render := func(o Options) string {
		rows, err := LatencySweep(o)
		if err != nil {
			t.Fatal(err)
		}
		return LatencyTable(rows).String()
	}
	want := render(latencyTestOptions())

	o := latencyTestOptions()
	o.Parallel = 4
	if got := render(o); got != want {
		t.Errorf("-parallel 4 output differs:\n%s\n--- want ---\n%s", got, want)
	}
}
