package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("zero value must be 0")
	}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("Value = %d", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestMean(t *testing.T) {
	var m Mean
	if m.Mean() != 0 {
		t.Fatal("empty mean must be 0")
	}
	for _, v := range []float64{2, 4, 6, 6} {
		m.Observe(v)
	}
	if got := m.Mean(); got != 4.5 {
		t.Fatalf("Mean = %v", got)
	}
	if m.count != 4 || m.sum != 18 {
		t.Fatalf("count/sum = %d/%v", m.count, m.sum)
	}
	m.Reset()
	if m.Mean() != 0 || m.count != 0 {
		t.Fatal("Reset kept samples")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Max() != 1000 {
		t.Fatalf("Max = %v", h.Max())
	}
	if got := h.Mean(); math.Abs(got-221.2) > 1e-9 {
		t.Fatalf("Mean = %v", got)
	}
	if q := h.Quantile(0.5); q < 2 || q > 4 {
		t.Fatalf("median bucket bound = %v", q)
	}
	if q := h.Quantile(1.0); q < 1000 {
		t.Fatalf("p100 bound = %v", q)
	}
}

// Bucket i holds 2^(i-1) < v <= 2^i: each power of two sits at the top
// of its own bucket, and the next float above it, like 2^k+1, opens the
// next one. Log2 rounding put math.Nextafter(16, +Inf) in bucket 4 and
// 2^49+1 in bucket 49.
func TestHistogramBucketBoundaries(t *testing.T) {
	for k := 0; k <= 62; k++ {
		p := math.Ldexp(1, k)
		if got := bucket(p); got != k {
			t.Errorf("bucket(2^%d) = %d, want %d", k, got, k)
		}
		if got := bucket(math.Nextafter(p, math.Inf(1))); got != k+1 {
			t.Errorf("bucket(nextafter(2^%d)) = %d, want %d", k, got, k+1)
		}
		if v := p + 1; v != p {
			if got := bucket(v); got != k+1 {
				t.Errorf("bucket(2^%d+1) = %d, want %d", k, got, k+1)
			}
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(-1), -5, 0, 0.5, 1} {
		if got := bucket(v); got != 0 {
			t.Errorf("bucket(%v) = %d, want 0", v, got)
		}
	}
	for _, v := range []float64{math.MaxFloat64, math.Inf(1)} {
		if got := bucket(v); got != 63 {
			t.Errorf("bucket(%v) = %d, want 63", v, got)
		}
	}
}

// Every sample the simulator observes is an integer count far below
// 2^49, where the Log2 expression the bucket used to be computed with is
// exact; on those the two must agree, so no golden moves.
func TestHistogramBucketMatchesLog2OnIntegers(t *testing.T) {
	log2Bucket := func(v float64) int {
		if v <= 1 {
			return 0
		}
		return min(int(math.Ceil(math.Log2(v))), 63)
	}
	for n := 0; n <= 1<<24; n++ {
		if got, want := bucket(float64(n)), log2Bucket(float64(n)); got != want {
			t.Fatalf("bucket(%d) = %d, Log2 expression gives %d", n, got, want)
		}
	}
}

// Property: the quantile upper bound is monotone in q and bounds the mean
// sample bucket correctly.
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(samples []uint16) bool {
		var h Histogram
		for _, s := range samples {
			h.Observe(float64(s))
		}
		prev := 0.0
		for q := 0.0; q <= 1.0; q += 0.1 {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetAndRegistry(t *testing.T) {
	var c Counter
	var m Mean
	s := NewSet("nvm")
	s.RegisterCounter("writes", &c)
	s.RegisterMean("lat", &m)
	s.RegisterFunc("two", func() float64 { return 2 })

	c.Add(7)
	m.Observe(10)

	if v, ok := s.Get("writes"); !ok || v != 7 {
		t.Fatalf("Get writes = %v %v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("missing stat must not resolve")
	}
	if got := s.order; len(got) != 3 || got[0] != "writes" {
		t.Fatalf("names = %v", got)
	}
	if got, want := s.String(), "nvm{writes=7, lat=10, two=2}"; s.Name() != "nvm" || got != want {
		t.Fatalf("set %q renders %q, want nvm and %q", s.Name(), got, want)
	}

	var r Registry
	r.Register(s)
	snap := r.Snapshot()
	if v, ok := snap.Lookup("nvm.lat"); !ok || v != 10 {
		t.Fatalf("Lookup = %v %v", v, ok)
	}
	if _, ok := snap.Lookup("nope.writes"); ok {
		t.Fatal("unknown component must not resolve")
	}
	if _, ok := snap.Lookup("noDot"); ok {
		t.Fatal("path without dot must not resolve")
	}
	dump := snap.Dump()
	if !strings.Contains(dump, "nvm.writes = 7") {
		t.Fatalf("Dump missing counter: %q", dump)
	}
}

func TestSetDuplicateRegistration(t *testing.T) {
	s := NewSet("x")
	s.RegisterFunc("v", func() float64 { return 1 })
	s.RegisterFunc("v", func() float64 { return 2 })
	if got := len(s.order); got != 1 {
		t.Fatalf("duplicate names registered: %v", s.order)
	}
	if v, _ := s.Get("v"); v != 2 {
		t.Fatalf("later registration must win, got %v", v)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "bench", "value")
	tb.AddRow("mcf", 0.5)
	tb.AddRow("lbm", 12345.0)
	out := tb.String()
	for _, want := range []string{"Fig X", "bench", "mcf", "0.5000", "12345"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestMeans(t *testing.T) {
	if got := GeoMean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("GeoMean = %v", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Fatalf("GeoMean(nil) = %v", got)
	}
	if got := GeoMean([]float64{1, -1}); got != 0 {
		t.Fatalf("GeoMean with nonpositive = %v", got)
	}
	if got := ArithMean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("ArithMean = %v", got)
	}
	if got := ArithMean(nil); got != 0 {
		t.Fatalf("ArithMean(nil) = %v", got)
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 7, 300, 1e9} {
		h.Observe(v)
	}
	if h.Count() == 0 || h.Max() == 0 {
		t.Fatal("histogram not populated")
	}
	h.Reset()
	if h.Count() != 0 || h.sum != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("Reset left state: count=%d max=%v", h.Count(), h.Max())
	}
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("Quantile after Reset = %v", got)
	}
	// The histogram must be reusable after Reset.
	h.Observe(8)
	if h.Count() != 1 || h.Mean() != 8 || h.Max() != 8 {
		t.Fatal("histogram unusable after Reset")
	}
}

func newTestRegistry() *Registry {
	r := &Registry{}
	var c Counter
	c.Add(3)
	sb := NewSet("beta")
	sb.RegisterCounter("writes", &c)
	sa := NewSet("alpha")
	sa.RegisterFunc("ratio", func() float64 { return 0.25 })
	sa.RegisterFunc("count", func() float64 { return 12 })
	// Registered out of name order on purpose: Dump sorts by set name.
	r.Register(sb)
	r.Register(sa)
	return r
}

func TestSnapshotMatchesRegistry(t *testing.T) {
	r := newTestRegistry()
	snap := r.Snapshot()
	if got, want := snap.Dump(), "alpha.ratio = 0.25\nalpha.count = 12\nbeta.writes = 3\n"; got != want {
		t.Fatalf("Snapshot.Dump = %q, want %q", got, want)
	}
	for _, tc := range []struct {
		path string
		want float64
	}{{"beta.writes", 3}, {"alpha.ratio", 0.25}, {"alpha.count", 12}} {
		got, ok := snap.Lookup(tc.path)
		if !ok || got != tc.want {
			t.Fatalf("Snapshot.Lookup(%q) = %v %v, want %v", tc.path, got, ok, tc.want)
		}
	}
	if _, ok := snap.Lookup("alpha.missing"); ok {
		t.Fatal("Lookup of missing stat must fail")
	}
	if _, ok := snap.Lookup("nodot"); ok {
		t.Fatal("Lookup without a dot must fail")
	}
}

func TestSnapshotIsImmutableCapture(t *testing.T) {
	r := &Registry{}
	var c Counter
	s := NewSet("live")
	s.RegisterCounter("n", &c)
	r.Register(s)
	snap := r.Snapshot()
	c.Add(100) // mutate after the capture
	if v, _ := snap.Lookup("live.n"); v != 0 {
		t.Fatalf("snapshot value moved with the live counter: %v", v)
	}
	if v, _ := s.Get("n"); v != 100 {
		t.Fatalf("registry must stay live: %v", v)
	}
}
