package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"silentshredder/internal/span"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

func TestBusRecordsInOrder(t *testing.T) {
	b := NewBus(Config{RingCap: 16})
	b.SetNow(0, 100)
	b.Emit(EvShred, 0x1000, 0)
	b.SetNow(1, 250)
	b.Emit(EvCtrMiss, 0x2000, 0)
	b.Emit(EvCtrHit, 0x3000, 7)

	evs := b.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	want := []Event{
		{Seq: 0, TS: 100, Kind: EvShred, Core: 0, Addr: 0x1000},
		{Seq: 1, TS: 250, Kind: EvCtrMiss, Core: 1, Addr: 0x2000},
		{Seq: 2, TS: 250, Kind: EvCtrHit, Core: 1, Addr: 0x3000, Arg: 7},
	}
	for i, w := range want {
		if evs[i] != w {
			t.Errorf("event %d = %+v, want %+v", i, evs[i], w)
		}
	}
	if b.seq != 3 || b.Len() != 3 || b.Dropped() != 0 {
		t.Fatalf("seq=%d len=%d dropped=%d", b.seq, b.Len(), b.Dropped())
	}
}

func TestNilBusIsDisabled(t *testing.T) {
	var b *Bus
	// All methods must be safe no-ops.
	b.SetNow(3, 99)
	b.Emit(EvShred, 1, 2)
	if b.Events() != nil || b.Len() != 0 || b.Dropped() != 0 {
		t.Fatal("nil bus not inert")
	}
}

func TestRingOverflowDropsOldest(t *testing.T) {
	b := NewBus(Config{RingCap: 4})
	for i := 0; i < 7; i++ {
		b.SetNow(0, uint64(i))
		b.Emit(EvCtrHit, uint64(i), 0)
	}
	if b.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", b.Dropped())
	}
	evs := b.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(i + 3); ev.Seq != want || ev.Addr != want {
			t.Errorf("event %d: seq=%d addr=%d, want %d (oldest-first after wrap)", i, ev.Seq, ev.Addr, want)
		}
	}
	if b.seq != 7 {
		t.Fatalf("lifetime seq = %d, want 7", b.seq)
	}
}

func TestSpillConcatenationDecodes(t *testing.T) {
	// Two independent one-shot encodings back to back — what the CLI
	// writes for a multi-run sweep — must decode as one stream.
	a := []Event{{Seq: 0, TS: 1, Kind: EvShred, Core: -1, Addr: 0x53}} // Addr low byte = 'S'
	b := []Event{{Seq: 0, TS: 2, Kind: EvCrash, Core: 0}}
	var buf bytes.Buffer
	if err := EncodeSpill(&buf, a); err != nil {
		t.Fatal(err)
	}
	if err := EncodeSpill(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSpill(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != a[0] || got[1] != b[0] {
		t.Fatalf("decoded %+v", got)
	}
}

// TestSeqFirstByteAmbiguity pins the decoder's magic-vs-record
// disambiguation: a record whose Seq low byte equals the first magic
// byte ('S' = 0x53) must still decode correctly.
func TestSeqFirstByteAmbiguity(t *testing.T) {
	evs := []Event{{Seq: 0x53, TS: 9, Kind: EvCtrHit, Core: 2, Addr: 5, Arg: 6}}
	var buf bytes.Buffer
	if err := EncodeSpill(&buf, evs); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSpill(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != evs[0] {
		t.Fatalf("decoded %+v, want %+v", got, evs)
	}
}

func TestDecodeSpillEmptyAndBadMagic(t *testing.T) {
	if evs, err := DecodeSpill(bytes.NewReader(nil)); err != nil || evs != nil {
		t.Fatalf("empty stream: %v %v", evs, err)
	}
	if _, err := DecodeSpill(bytes.NewReader([]byte("NOTMAGIC"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestDisabledEmitAllocs is the zero-cost-when-disabled contract: a nil
// bus's Emit and SetNow must not allocate, and neither may an enabled
// bus's within-capacity Emit (the ring is preallocated).
func TestDisabledEmitAllocs(t *testing.T) {
	var nilBus *Bus
	if n := testing.AllocsPerRun(1000, func() {
		nilBus.SetNow(1, 42)
		nilBus.Emit(EvShred, 0xabc, 1)
	}); n != 0 {
		t.Fatalf("nil-bus emit allocates %v per op", n)
	}

	b := NewBus(Config{RingCap: 1 << 16})
	if n := testing.AllocsPerRun(1000, func() {
		b.SetNow(0, 7)
		b.Emit(EvCtrHit, 0x40, 0)
	}); n != 0 {
		t.Fatalf("enabled within-capacity emit allocates %v per op", n)
	}
}

func TestKindNamesComplete(t *testing.T) {
	for k := Kind(1); k < kindMax; k++ {
		if kindNames[k] == "" {
			t.Errorf("kind %d has no name (append-only table out of date)", k)
		}
	}
	if EvShred.String() != "shred" {
		t.Fatalf("EvShred = %q", EvShred)
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Fatalf("unknown kind = %q", got)
	}
}

func TestWriteChromeTraceGolden(t *testing.T) {
	runs := []TraceRun{
		{Name: "alpha", Events: []Event{
			{Seq: 0, TS: 0, Kind: EvShred, Core: -1, Addr: 0x1000},
			{Seq: 1, TS: 2000, Kind: EvCtrHit, Core: 0},
			{Seq: 2, TS: 2001, Kind: EvZeroFill, Core: 1, Addr: 0x40, Arg: 2},
		}},
		{Name: "beta \"q\"", Events: []Event{
			{Seq: 0, TS: 5, Kind: EvCrash, Core: 0},
		}},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, runs); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "chrome_golden.json"), buf.Bytes())
}

// TestWriteChromeTraceSpans pins the span/complete-event form and the
// dropped_events metadata: nested spans become ph "X" intervals on the
// issuing core's thread, zero segments are elided, and a wrapped ring
// is announced rather than silently truncated.
func TestWriteChromeTraceSpans(t *testing.T) {
	outer := span.Span{Seq: 0, Start: 2000, Cycles: 4000, Addr: 0x2000, Op: span.OpWrite, Core: 0, Tenant: 1}
	outer.Seg[span.LayerCache] = 100
	outer.Seg[span.LayerDevice] = 1200
	inner := span.Span{Seq: 1, Start: 2500, Cycles: 1000, Addr: 0x2000, Op: span.OpShred, Core: 0, Tenant: 1}
	inner.Seg[span.LayerCtrCache] = 30
	untagged := span.Span{Seq: 2, Start: 9000, Cycles: 10, Op: span.OpMerkleFlush, Core: -1, Tenant: -1}
	runs := []TraceRun{
		{
			Name:    "alpha",
			Events:  []Event{{Seq: 0, TS: 0, Kind: EvShred, Core: -1, Addr: 0x1000}},
			Spans:   []span.Span{outer, inner, untagged},
			Dropped: 7,
		},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, runs); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "chrome_spans_golden.json"), buf.Bytes())
}

// compareGolden diffs got against the golden file, rewriting it under
// -update-golden.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
