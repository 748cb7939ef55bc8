package span

import (
	"strings"
	"testing"
)

// The disabled (nil-recorder) path must be allocation-free: every
// component holds a possibly-nil *Recorder and calls it
// unconditionally, so a disabled machine must not pay for provenance.
func TestDisabledSpanAllocs(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.SetNow(2, 12345)
		r.SetTenant(7)
		r.Begin(OpRead, 0x1000)
		r.Add(LayerDevice, 60)
		mk := r.Mark()
		r.Attribute(LayerCtrCache, 90, mk)
		r.End(150)
		_ = r.Dropped()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates: %v allocs/op", allocs)
	}
}

// The enabled steady-state path must be allocation-free too once the
// ring is warm (the ring is preallocated; the aggregate's global table
// is inline).
func TestEnabledSteadyStateAllocs(t *testing.T) {
	r := NewRecorder(Config{RingCap: 16})
	r.SetTenant(3) // tenant table allocates once, up front
	r.Begin(OpRead, 0)
	r.End(1)
	allocs := testing.AllocsPerRun(1000, func() {
		r.SetNow(0, 77)
		r.Begin(OpWrite, 0x40)
		r.Add(LayerDevice, 60)
		r.End(60)
	})
	if allocs != 0 {
		t.Fatalf("enabled steady-state span path allocates: %v allocs/op", allocs)
	}
}

func TestSpanRecording(t *testing.T) {
	r := NewRecorder(Config{RingCap: 8})
	r.SetNow(1, 100)
	r.SetTenant(42)
	r.Begin(OpRead, 0xabc)
	r.Add(LayerDevice, 60)
	r.Add(LayerPad, 2)
	r.End(62)

	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Op != OpRead || sp.Start != 100 || sp.Cycles != 62 || sp.Addr != 0xabc {
		t.Fatalf("span fields: %+v", sp)
	}
	if sp.Core != 1 || sp.Tenant != 42 || sp.Seq != 0 {
		t.Fatalf("span context: %+v", sp)
	}
	if sp.Seg[LayerDevice] != 60 || sp.Seg[LayerPad] != 2 {
		t.Fatalf("span segments: %v", sp.Seg)
	}
}

// A nested span's Adds credit every active span: the outer store that
// faulted absorbs the clear's device work.
func TestNestedSpansCreditAllActive(t *testing.T) {
	r := NewRecorder(Config{})
	r.Begin(OpWrite, 0x1000)
	r.Add(LayerCache, 4)
	r.Begin(OpShred, 0x2000)
	r.Add(LayerCtrCache, 9)
	r.End(9)
	r.End(13)

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	inner, outer := spans[0], spans[1]
	if inner.Op != OpShred || inner.Seg[LayerCtrCache] != 9 || inner.Seg[LayerCache] != 0 {
		t.Fatalf("inner: %+v", inner)
	}
	if outer.Op != OpWrite || outer.Seg[LayerCache] != 4 || outer.Seg[LayerCtrCache] != 9 {
		t.Fatalf("outer: %+v", outer)
	}
	if inner.Seq != 0 || outer.Seq != 1 {
		t.Fatalf("completion order: inner=%d outer=%d", inner.Seq, outer.Seq)
	}
}

// Attribute charges only the residual of a composite latency: the
// portion deeper layers already Added since the mark stays theirs.
func TestAttributeResidual(t *testing.T) {
	r := NewRecorder(Config{})
	r.Begin(OpRead, 0)
	mk := r.Mark()
	r.Add(LayerDevice, 60) // the counter fill's device read
	r.Attribute(LayerCtrCache, 75, mk)
	r.End(75)

	sp := r.Spans()[0]
	if sp.Seg[LayerDevice] != 60 || sp.Seg[LayerCtrCache] != 15 {
		t.Fatalf("residual attribution: %v", sp.Seg)
	}
}

// Attribute clamps at zero when inner work exceeds the composite total
// (latency overlap makes this legal).
func TestAttributeClamp(t *testing.T) {
	r := NewRecorder(Config{})
	r.Begin(OpRead, 0)
	mk := r.Mark()
	r.Add(LayerDevice, 100)
	r.Attribute(LayerCtrCache, 40, mk)
	r.End(100)

	sp := r.Spans()[0]
	if sp.Seg[LayerCtrCache] != 0 {
		t.Fatalf("clamp failed: %v", sp.Seg)
	}
}

func TestRingDropOldest(t *testing.T) {
	r := NewRecorder(Config{RingCap: 2})
	for i := 0; i < 5; i++ {
		r.Begin(OpRead, uint64(i))
		r.End(1)
	}
	if r.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", r.Dropped())
	}
	spans := r.Spans()
	if len(spans) != 2 || spans[0].Addr != 3 || spans[1].Addr != 4 {
		t.Fatalf("ring contents: %+v", spans)
	}
	if r.seq != 5 {
		t.Fatalf("seq = %d, want 5", r.seq)
	}
	// The aggregate still covers every span, dropped or not.
	if got := r.Aggregate().Total[OpRead].Count; got != 5 {
		t.Fatalf("aggregate count = %d, want 5", got)
	}
}

// Begins past MaxDepth are refused, and the matching Ends unwind
// without corrupting the stack.
func TestDepthOverflow(t *testing.T) {
	r := NewRecorder(Config{})
	for i := 0; i < MaxDepth+3; i++ {
		r.Begin(OpRead, uint64(i))
	}
	for i := 0; i < MaxDepth+3; i++ {
		r.End(1)
	}
	if got := len(r.Spans()); got != MaxDepth {
		t.Fatalf("recorded %d spans, want %d", got, MaxDepth)
	}
	// The stack must be clean: a fresh span records normally.
	r.Begin(OpWrite, 0xff)
	r.End(2)
	spans := r.Spans()
	last := spans[len(spans)-1]
	if last.Op != OpWrite || last.Cycles != 2 {
		t.Fatalf("stack corrupted after overflow: %+v", last)
	}
}

func TestTenantAggregation(t *testing.T) {
	r := NewRecorder(Config{})
	r.SetTenant(5)
	r.Begin(OpShred, 0)
	r.Add(LayerCtrCache, 10)
	r.End(10)
	r.SetTenant(9)
	r.Begin(OpShred, 0)
	r.End(20)
	r.SetTenant(-1) // no tenant context
	r.Begin(OpRead, 0)
	r.End(5)

	agg := r.Aggregate()
	if agg.Total[OpShred].Count != 2 || agg.Total[OpRead].Count != 1 {
		t.Fatalf("global table: %+v", agg.Total)
	}
	ids := agg.Tenants()
	if len(ids) != 2 || ids[0] != 5 || ids[1] != 9 {
		t.Fatalf("tenants: %v", ids)
	}
	if got := agg.Tenant(5)[OpShred].Seg[LayerCtrCache]; got != 10 {
		t.Fatalf("tenant 5 ctrcache = %d", got)
	}
	if agg.Tenant(9)[OpShred].Cycles != 20 {
		t.Fatalf("tenant 9 cycles: %+v", agg.Tenant(9)[OpShred])
	}
}

func TestBreakdownExportDeterminism(t *testing.T) {
	r := NewRecorder(Config{})
	r.SetTenant(2)
	r.Begin(OpShred, 0)
	r.Add(LayerCtrCache, 18)
	r.End(18)
	r.SetTenant(1)
	r.Begin(OpZero, 0)
	r.Add(LayerDevice, 9600)
	r.End(9600)

	var b1, b2 strings.Builder
	if err := r.Aggregate().WriteBreakdownCSV(&b1, "run0", true); err != nil {
		t.Fatal(err)
	}
	if err := r.Aggregate().WriteBreakdownCSV(&b2, "run0", true); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("CSV export is not deterministic")
	}
	out := b1.String()
	if !strings.HasPrefix(out, BreakdownCSVHeader()+"\n") {
		t.Fatalf("missing header:\n%s", out)
	}
	// "all" rows first (op order), then tenants ascending.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	wantPrefix := []string{
		BreakdownCSVHeader(),
		"run0,all,zero,",
		"run0,all,shred,",
		"run0,1,zero,",
		"run0,2,shred,",
	}
	for i, p := range wantPrefix {
		if !strings.HasPrefix(lines[i], p) {
			t.Fatalf("line %d = %q, want prefix %q", i, lines[i], p)
		}
	}

	var j strings.Builder
	if err := WriteBreakdownJSONRuns(&j, []NamedAgg{{Run: "run0", Agg: r.Aggregate()}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(j.String(), `"tenant": "all"`) || !strings.Contains(j.String(), `"op": "shred"`) {
		t.Fatalf("JSON export missing fields:\n%s", j.String())
	}
}

// An empty aggregate exports an empty JSON array, not "null".
func TestBreakdownJSONEmpty(t *testing.T) {
	var a Agg
	var b strings.Builder
	if err := WriteBreakdownJSONRuns(&b, []NamedAgg{{Run: "x", Agg: &a}}); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != "[]" {
		t.Fatalf("empty export = %q", b.String())
	}
}

func TestNames(t *testing.T) {
	if LayerMMU.String() != "mmu" || LayerDevice.String() != "device" || Layer(200).String() != "layer?" {
		t.Fatal("layer names")
	}
	if OpShred.String() != "shred" || OpMerkleFlush.String() != "merkle_flush" || Op(200).String() != "op?" {
		t.Fatal("op names")
	}
}
