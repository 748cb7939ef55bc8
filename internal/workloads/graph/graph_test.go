package graph

import (
	"math"
	"testing"

	"silentshredder/internal/apprt"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/sim"
)

func testRT(t *testing.T) *apprt.Runtime {
	t.Helper()
	cfg := sim.ScaledConfig(memctrl.SilentShredder, kernel.ZeroShred, 64)
	cfg.Hier.Cores = 1
	cfg.MemPages = 1 << 16
	cfg.VerifyPlaintext = true
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.Runtime(0)
}

func smallGen() Gen { return Gen{V: 64, E: 256, Seed: 7, Skew: 1.2} }

func TestEdgesDeterministic(t *testing.T) {
	g := smallGen()
	e1, e2 := g.Edges(), g.Edges()
	if len(e1) != g.E {
		t.Fatalf("edges = %d", len(e1))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("edge generation not deterministic")
		}
		if e1[i][0] == e1[i][1] {
			t.Fatal("self loop generated")
		}
		if int(e1[i][0]) >= g.V || int(e1[i][1]) >= g.V {
			t.Fatal("vertex id out of range")
		}
	}
}

func TestBuildCSRConsistent(t *testing.T) {
	rt := testRT(t)
	gen := smallGen()
	g := Build(rt, gen)
	// Degrees sum to E, offsets are monotone.
	total := 0
	prev := uint64(0)
	for v := 0; v < g.V; v++ {
		off := g.xadj.Get(v)
		if off < prev {
			t.Fatal("xadj not monotone")
		}
		prev = off
		total += g.Degree(v)
	}
	if total != g.E {
		t.Fatalf("degree sum = %d, want %d", total, g.E)
	}
	// CSR adjacency matches the generated multiset of edges per source.
	want := map[[2]uint32]int{}
	for _, e := range gen.Edges() {
		want[e]++
	}
	got := map[[2]uint32]int{}
	for v := 0; v < g.V; v++ {
		g.Neighbors(v, func(u int) {
			got[[2]uint32{uint32(v), uint32(u)}]++
		})
	}
	if len(got) != len(want) {
		t.Fatalf("adjacency edge kinds = %d, want %d", len(got), len(want))
	}
	for e, n := range want {
		if got[e] != n {
			t.Fatalf("edge %v count = %d, want %d", e, got[e], n)
		}
	}
}

func TestBuildCausesShredding(t *testing.T) {
	rt := testRT(t)
	Build(rt, smallGen())
	if rt.Kernel().Controller().ShredCommands() == 0 {
		t.Fatal("construction must shred freshly allocated pages")
	}
	if faults, _ := rt.Kernel().StatsSet().Get("page_faults"); faults == 0 {
		t.Fatal("construction must page fault")
	}
}

func TestPageRankConserves(t *testing.T) {
	rt := testRT(t)
	g := Build(rt, smallGen())
	ranks := g.PageRank(3)
	var sum float64
	for v := 0; v < g.V; v++ {
		r := ranks.GetF(v)
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	// Dangling vertices lose mass, so sum <= 1 + epsilon.
	if sum <= 0 || sum > 1.0001 {
		t.Fatalf("rank sum = %v", sum)
	}
}

func TestColoringProper(t *testing.T) {
	rt := testRT(t)
	g := Build(rt, smallGen())
	n := g.ColorGreedy()
	if n < 1 || n > g.V {
		t.Fatalf("colors = %d", n)
	}
}

func TestKCore(t *testing.T) {
	rt := testRT(t)
	g := Build(rt, Gen{V: 32, E: 128, Seed: 3, Skew: 1.1})
	k := g.KCoreUpTo(0)
	if k < 1 || k >= 32 {
		t.Fatalf("kcore = %d", k)
	}
}

func TestTriangleCountMatchesHostComputation(t *testing.T) {
	rt := testRT(t)
	gen := Gen{V: 24, E: 96, Seed: 5, Skew: 1.1}
	g := Build(rt, gen)
	got := g.TriangleCount(0)

	// Host-side reference over the same edge list.
	adj := map[int]map[int]bool{}
	for _, e := range gen.Edges() {
		if adj[int(e[0])] == nil {
			adj[int(e[0])] = map[int]bool{}
		}
		adj[int(e[0])][int(e[1])] = true
	}
	var want uint64
	for v, ns := range adj {
		_ = v
		for u := range ns {
			for w := range adj[u] {
				if ns[w] {
					want++
				}
			}
		}
	}
	// The simulated count iterates the multiset; dedupe via the host map
	// makes exact equality only valid when the edge list has no
	// duplicates, so compare with the same multiset logic instead.
	want2 := hostTriangles(gen)
	if got != want2 {
		t.Fatalf("triangles = %d, want %d (set-based %d)", got, want2, want)
	}
}

func hostTriangles(gen Gen) uint64 {
	edges := gen.Edges()
	out := map[int][]int{}
	for _, e := range edges {
		out[int(e[0])] = append(out[int(e[0])], int(e[1]))
	}
	var count uint64
	for v := range outKeys(out, gen.V) {
		nset := map[int]bool{}
		for _, u := range out[v] {
			nset[u] = true
		}
		for _, u := range out[v] {
			for _, w := range out[u] {
				if nset[w] {
					count++
				}
			}
		}
	}
	return count
}

func outKeys(m map[int][]int, v int) map[int]struct{} {
	keys := make(map[int]struct{})
	for i := 0; i < v; i++ {
		keys[i] = struct{}{}
	}
	return keys
}

func TestSGDReducesError(t *testing.T) {
	rt := testRT(t)
	r := GenRatings(1, 32, 16, 256)
	f := NewFactorizer(rt, r, 4)
	before := f.RMSE()
	after := f.SGD(3, 0.05, 0.01)
	if math.IsNaN(after) || after >= before {
		t.Fatalf("SGD RMSE %v -> %v: no improvement", before, after)
	}
}

func TestALSReducesError(t *testing.T) {
	rt := testRT(t)
	r := GenRatings(2, 32, 16, 256)
	f := NewFactorizer(rt, r, 4)
	before := f.RMSE()
	after := f.ALS(2, 0.05, 0.01)
	if math.IsNaN(after) || after >= before {
		t.Fatalf("ALS RMSE %v -> %v: no improvement", before, after)
	}
}

func TestRatingsRoundTripThroughStaging(t *testing.T) {
	rt := testRT(t)
	r := GenRatings(3, 10, 10, 50)
	f := NewFactorizer(rt, r, 2)
	for i, e := range r.Entries {
		u, v, rating := f.rating(i)
		if u != int(e[0]) || v != int(e[1]) {
			t.Fatalf("entry %d ids = %d,%d want %d,%d", i, u, v, e[0], e[1])
		}
		if math.Abs(rating-float64(e[2])/1000) > 1e-9 {
			t.Fatalf("entry %d rating = %v", i, rating)
		}
	}
}

func TestSqrt(t *testing.T) {
	for _, x := range []float64{0, 1, 2, 100, 1e6} {
		if got, want := sqrt(x), math.Sqrt(x); math.Abs(got-want) > 1e-6*(want+1) {
			t.Fatalf("sqrt(%v) = %v, want %v", x, got, want)
		}
	}
	if sqrt(-4) != 0 {
		t.Fatal("sqrt of negative must clamp to 0")
	}
}

func TestColorOrderedProper(t *testing.T) {
	rt := testRT(t)
	g := Build(rt, smallGen())
	ordered := g.ColorOrdered()
	greedy := g.ColorGreedy()
	if ordered < 1 || ordered > g.V {
		t.Fatalf("ordered colors = %d", ordered)
	}
	// Degree ordering should not need dramatically more colors.
	if ordered > greedy*2 {
		t.Fatalf("ordered coloring (%d) much worse than greedy (%d)", ordered, greedy)
	}
}
