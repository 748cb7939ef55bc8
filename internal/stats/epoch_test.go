package stats

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// epochFixture builds a registry with one counter and one mean, plus a
// tracked histogram, and returns the mutators.
func epochFixture() (*Registry, *Counter, *Histogram, *EpochSampler) {
	var c Counter
	var h Histogram
	set := NewSet("mc")
	set.RegisterCounter("writes", &c)
	set.RegisterFunc("half_writes", func() float64 { return float64(c.Value()) / 2 })
	reg := &Registry{}
	reg.Register(set)
	s := NewEpochSampler(reg, 100)
	s.TrackHistogram("lat", &h, []float64{0.5, 0.99})
	return reg, &c, &h, s
}

func TestEpochSamplerBoundaries(t *testing.T) {
	_, c, _, s := epochFixture()
	if s.every != 100 {
		t.Fatalf("interval = %d", s.every)
	}
	c.Add(1)
	s.Tick(10) // before first boundary: no sample
	if len(s.Epochs()) != 0 {
		t.Fatal("sampled before the first boundary")
	}
	c.Add(1)
	s.Tick(100) // boundary
	c.Add(3)
	s.Tick(150) // same epoch
	s.Tick(120) // time going backwards (another core): ignored
	c.Add(5)
	s.Tick(399) // skipped epoch 2 entirely; epoch 3 window
	s.Tick(400)
	eps := s.Epochs()
	if len(eps) != 3 {
		t.Fatalf("epochs = %d, want 3", len(eps))
	}
	if eps[0].Index != 1 || eps[0].Cycles != 100 {
		t.Fatalf("epoch 0 = %+v", eps[0])
	}
	if v, _ := eps[0].Snap.Lookup("mc.writes"); v != 2 {
		t.Fatalf("epoch 0 writes = %v", v)
	}
	if eps[1].Index != 3 || eps[1].Cycles != 399 {
		t.Fatalf("epoch 1 = %+v (one sample per crossing, index = cycles/interval)", eps[1])
	}
	if eps[2].Index != 4 || eps[2].Cycles != 400 {
		t.Fatalf("epoch 2 = %+v", eps[2])
	}
}

func TestEpochSamplerFinishAndExtras(t *testing.T) {
	_, c, h, s := epochFixture()
	c.Add(7)
	h.Observe(3)
	h.Observe(100)
	s.Tick(130)
	c.Add(1)
	s.Finish(175) // end-of-run sample off-boundary
	eps := s.Epochs()
	if len(eps) != 2 {
		t.Fatalf("epochs = %d", len(eps))
	}
	last := eps[len(eps)-1]
	if last.Cycles != 175 || last.Index != 1 {
		t.Fatalf("finish epoch = %+v", last)
	}
	if v, _ := last.Snap.Lookup("mc.writes"); v != 8 {
		t.Fatalf("finish writes = %v", v)
	}
	names := s.ExtraNames()
	if want := []string{"lat_p50", "lat_p99"}; strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("extra names = %v", names)
	}
	if len(last.Extra) != 2 || last.Extra[0] != h.Quantile(0.5) || last.Extra[1] != h.Quantile(0.99) {
		t.Fatalf("extras = %v, want [%v %v] (the histogram's own quantiles)",
			last.Extra, h.Quantile(0.5), h.Quantile(0.99))
	}
}

func TestNilEpochSampler(t *testing.T) {
	var s *EpochSampler
	s.Tick(100)
	s.Finish(200)
	s.TrackHistogram("x", &Histogram{}, []float64{0.5})
	if s.Epochs() != nil || s.ExtraNames() != nil {
		t.Fatal("nil sampler not inert")
	}
}

func TestEpochSamplerZeroIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for every=0")
		}
	}()
	NewEpochSampler(&Registry{}, 0)
}

func TestEpochCSVGolden(t *testing.T) {
	_, c, h, s := epochFixture()
	for cyc := uint64(1); cyc <= 350; cyc++ {
		if cyc%3 == 0 {
			c.Inc()
		}
		h.Observe(float64(cyc % 40))
		s.Tick(cyc)
	}
	s.Finish(360)
	cols := []EpochColumn{
		PathColumn("mc.writes"),
		DeltaColumn("mc.writes"),
		PathColumn("mc.half_writes"),
		RatioColumn("write_share", "mc.writes", "mc.writes", "mc.half_writes"),
		ExtraColumn("lat_p50", 0),
		ExtraColumn("lat_p99", 1),
		PathColumn("mc.missing_stat"), // absent paths export 0
	}
	var buf bytes.Buffer
	if err := EpochCSVHeader(&buf, cols); err != nil {
		t.Fatal(err)
	}
	if err := EpochCSVRows(&buf, "unit", s.Epochs(), cols); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "epoch_golden.csv"), buf.Bytes())
}

// TestExtraColumnEdgeCases: a tracked-histogram column whose index does
// not exist in an epoch's Extra slice — negative, past the end, or
// against a sampler with no tracked histograms at all — must export 0,
// never panic. Exports frequently mix columns configured for a richer
// machine with captures from a leaner one.
func TestExtraColumnEdgeCases(t *testing.T) {
	_, c, h, s := epochFixture()
	c.Add(4)
	h.Observe(10)
	h.Observe(20)
	s.Finish(50)
	eps := s.Epochs()
	if len(eps) != 1 || len(eps[0].Extra) != 2 {
		t.Fatalf("fixture epochs = %+v", eps)
	}
	for _, tc := range []struct {
		name string
		idx  int
		want float64
	}{
		{"valid p50", 0, h.Quantile(0.5)},
		{"valid p99", 1, h.Quantile(0.99)},
		{"past the end", 2, 0},
		{"far past the end", 99, 0},
		{"negative", -1, 0},
	} {
		col := ExtraColumn("lat", tc.idx)
		if got := col.Value(0, eps); got != tc.want {
			t.Errorf("%s: ExtraColumn(%d) = %v, want %v", tc.name, tc.idx, got, tc.want)
		}
	}

	// No tracked histograms: Extra is nil, every index exports 0 and the
	// CSV writer still produces a full row.
	var c2 Counter
	set := NewSet("mc")
	set.RegisterCounter("writes", &c2)
	reg := &Registry{}
	reg.Register(set)
	bare := NewEpochSampler(reg, 100)
	c2.Add(1)
	bare.Finish(10)
	bareEps := bare.Epochs()
	if len(bareEps) != 1 || bareEps[0].Extra != nil {
		t.Fatalf("bare epochs = %+v", bareEps)
	}
	var buf bytes.Buffer
	cols := []EpochColumn{PathColumn("mc.writes"), ExtraColumn("lat_p50", 0), ExtraColumn("bogus", -3)}
	if err := EpochCSVHeader(&buf, cols); err != nil {
		t.Fatal(err)
	}
	if err := EpochCSVRows(&buf, "bare", bareEps, cols); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "run,epoch,cycles,mc.writes,lat_p50,bogus\nbare,0,10,1,0,0\n"; got != want {
		t.Fatalf("bare CSV = %q, want %q", got, want)
	}
}

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
