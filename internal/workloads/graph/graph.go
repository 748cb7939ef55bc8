// Package graph is a small vertex-centric graph-analytics engine in the
// spirit of PowerGraph, used as the paper's primary workload (§5).
//
// Everything the engine touches — edge staging buffers, the CSR arrays,
// per-vertex state — lives in simulated memory, so graph construction
// produces exactly the allocation/shredding/first-touch pattern the paper
// measures: graphs are write-once read-many, which is why kernel zeroing
// dominates the construction phase's main-memory writes (Figure 5).
//
// Implemented applications: PageRank, greedy (simple) coloring, k-core
// decomposition, triangle counting, and ALS / SGD matrix factorization on
// a bipartite rating graph — covering the benchmarks in Figures 5 and 8.
package graph

import (
	"math/rand"
	"sort"

	"silentshredder/internal/apprt"
)

// Gen holds a synthetic power-law graph description. Edges are generated
// host-side (the equivalent of reading the Twitter/Netflix input file);
// the interesting memory behaviour is construction and computation.
type Gen struct {
	V    int
	E    int
	Seed int64
	// Skew is the Zipf s-parameter shaping the degree distribution
	// (natural graphs are highly skewed — PowerGraph's motivation).
	Skew float64
}

// DefaultGen returns a simulation-friendly power-law graph.
func DefaultGen() Gen { return Gen{V: 16384, E: 131072, Seed: 1, Skew: 1.2} }

// Edges deterministically generates the edge list.
func (g Gen) Edges() [][2]uint32 {
	rng := rand.New(rand.NewSource(g.Seed))
	zipf := rand.NewZipf(rng, g.Skew, 1, uint64(g.V-1))
	edges := make([][2]uint32, 0, g.E)
	for len(edges) < g.E {
		src := uint32(zipf.Uint64())
		dst := uint32(rng.Intn(g.V))
		if src == dst {
			continue
		}
		edges = append(edges, [2]uint32{src, dst})
	}
	return edges
}

// Graph is a CSR-format directed graph in simulated memory.
type Graph struct {
	rt   *apprt.Runtime
	V    int
	E    int
	xadj apprt.Array // V+1 offsets
	adj  apprt.Array // E neighbor ids
}

// Build constructs the CSR representation through simulated memory: the
// edge list is staged into a simulated buffer (as if parsed from input),
// degrees are counted, offsets prefix-summed, and the adjacency filled.
// This is the paper's "graph construction phase".
func Build(rt *apprt.Runtime, gen Gen) *Graph {
	edges := gen.Edges()
	g := &Graph{rt: rt, V: gen.V, E: len(edges)}

	// Stage the raw edge list in simulated memory (src<<32 | dst), the
	// way a loader would buffer parsed input.
	staged := apprt.NewArray(rt, len(edges))
	for i, e := range edges {
		staged.Set(i, uint64(e[0])<<32|uint64(e[1]))
		rt.Compute(4) // parse arithmetic
	}

	// Degree count.
	deg := apprt.NewArray(rt, gen.V)
	for i := 0; i < len(edges); i++ {
		src := int(staged.Get(i) >> 32)
		deg.Set(src, deg.Get(src)+1)
		rt.Compute(2)
	}

	// Prefix sum into xadj.
	g.xadj = apprt.NewArray(rt, gen.V+1)
	var sum uint64
	for v := 0; v < gen.V; v++ {
		g.xadj.Set(v, sum)
		sum += deg.Get(v)
		rt.Compute(2)
	}
	g.xadj.Set(gen.V, sum)

	// Fill adjacency, reusing deg as a per-vertex cursor.
	g.adj = apprt.NewArray(rt, len(edges))
	for v := 0; v < gen.V; v++ {
		deg.Set(v, 0)
	}
	for i := 0; i < len(edges); i++ {
		packed := staged.Get(i)
		src, dst := int(packed>>32), uint32(packed)
		slot := int(g.xadj.Get(src) + deg.Get(src))
		g.adj.Set(slot, uint64(dst))
		deg.Set(src, deg.Get(src)+1)
		rt.Compute(6)
	}

	// The loader frees its staging buffers — those pages return to the
	// kernel pool and get shredded on their next allocation.
	staged.Free()
	deg.Free()
	return g
}

// Degree returns vertex v's out-degree.
func (g *Graph) Degree(v int) int {
	return int(g.xadj.Get(v+1) - g.xadj.Get(v))
}

// Neighbors calls fn for each out-neighbor of v.
func (g *Graph) Neighbors(v int, fn func(u int)) {
	lo, hi := g.xadj.Get(v), g.xadj.Get(v+1)
	for i := lo; i < hi; i++ {
		fn(int(g.adj.Get(int(i))))
		g.rt.Compute(1)
	}
}

// PageRank runs the classic damped iteration for iters rounds and returns
// the rank array (in simulated memory).
func (g *Graph) PageRank(iters int) apprt.Array {
	const damping = 0.85
	rank := apprt.NewArray(g.rt, g.V)
	next := apprt.NewArray(g.rt, g.V)
	for v := 0; v < g.V; v++ {
		rank.SetF(v, 1.0/float64(g.V))
	}
	for it := 0; it < iters; it++ {
		for v := 0; v < g.V; v++ {
			next.SetF(v, (1-damping)/float64(g.V))
		}
		for v := 0; v < g.V; v++ {
			d := g.Degree(v)
			if d == 0 {
				continue
			}
			share := rank.GetF(v) / float64(d)
			g.Neighbors(v, func(u int) {
				next.SetF(u, next.GetF(u)+damping*share)
				g.rt.Compute(3)
			})
		}
		rank, next = next, rank
	}
	next.Free()
	return rank
}

// ColorGreedy assigns each vertex the smallest color unused by its
// neighbors (PowerGraph's simple_coloring) and returns the color count.
func (g *Graph) ColorGreedy() int {
	colors := apprt.NewArray(g.rt, g.V)
	for v := 0; v < g.V; v++ {
		colors.Set(v, ^uint64(0))
	}
	maxColor := 0
	used := make(map[uint64]bool)
	for v := 0; v < g.V; v++ {
		clear(used)
		g.Neighbors(v, func(u int) {
			if c := colors.Get(u); c != ^uint64(0) {
				used[c] = true
			}
		})
		c := uint64(0)
		for used[c] {
			c++
			g.rt.Compute(1)
		}
		colors.Set(v, c)
		if int(c)+1 > maxColor {
			maxColor = int(c) + 1
		}
	}
	colors.Free()
	return maxColor
}

// ColorOrdered is degree-ordered greedy coloring (PowerGraph's
// d_ordered_coloring): vertices are colored in decreasing out-degree
// order, which usually needs fewer colors than arrival order.
func (g *Graph) ColorOrdered() int {
	// Degree buckets computed through simulated memory.
	order := make([]int, g.V)
	for v := 0; v < g.V; v++ {
		order[v] = v
	}
	deg := apprt.NewArray(g.rt, g.V)
	for v := 0; v < g.V; v++ {
		deg.Set(v, uint64(g.Degree(v)))
	}
	// Host-side sort on the simulated degrees (the engine's scheduler).
	sort.SliceStable(order, func(i, j int) bool {
		return deg.Get(order[i]) > deg.Get(order[j])
	})

	colors := apprt.NewArray(g.rt, g.V)
	for v := 0; v < g.V; v++ {
		colors.Set(v, ^uint64(0))
	}
	maxColor := 0
	used := make(map[uint64]bool)
	for _, v := range order {
		clear(used)
		g.Neighbors(v, func(u int) {
			if c := colors.Get(u); c != ^uint64(0) {
				used[c] = true
			}
		})
		c := uint64(0)
		for used[c] {
			c++
			g.rt.Compute(1)
		}
		colors.Set(v, c)
		if int(c)+1 > maxColor {
			maxColor = int(c) + 1
		}
	}
	colors.Free()
	deg.Free()
	return maxColor
}

// KCoreUpTo computes the maximum k <= maxK (0 = no bound) such that a
// k-core exists, by monotone peeling: vertices with degree < k are
// removed (decrementing their neighbors) and k is raised whenever the
// remaining graph survives. Analytics pipelines typically want the k-core
// for a small fixed k; bounding also keeps simulation cost linear in the
// graph size.
func (g *Graph) KCoreUpTo(maxK int) int {
	deg := apprt.NewArray(g.rt, g.V)
	for v := 0; v < g.V; v++ {
		deg.Set(v, uint64(g.Degree(v)))
	}
	removed := apprt.NewArray(g.rt, g.V)
	maxCore := 0
	for k := 1; maxK == 0 || k <= maxK; k++ {
		for changed := true; changed; {
			changed = false
			for v := 0; v < g.V; v++ {
				if removed.Get(v) != 0 || deg.Get(v) >= uint64(k) {
					continue
				}
				removed.Set(v, 1)
				changed = true
				g.Neighbors(v, func(u int) {
					if removed.Get(u) == 0 {
						if d := deg.Get(u); d > 0 {
							deg.Set(u, d-1)
						}
					}
				})
			}
		}
		remaining := 0
		for v := 0; v < g.V; v++ {
			if removed.Get(v) == 0 {
				remaining++
			}
			g.rt.Compute(1)
		}
		if remaining == 0 {
			break
		}
		maxCore = k
	}
	deg.Free()
	removed.Free()
	return maxCore
}

// TriangleCount counts directed triangles by neighborhood intersection,
// sampling at most sample source vertices (0 = all).
func (g *Graph) TriangleCount(sample int) uint64 {
	if sample <= 0 || sample > g.V {
		sample = g.V
	}
	var count uint64
	for v := 0; v < sample; v++ {
		// Materialize v's neighbor set host-side (models per-vertex
		// scatter state); accesses still go through simulated memory.
		nset := make(map[int]bool)
		g.Neighbors(v, func(u int) { nset[u] = true })
		g.Neighbors(v, func(u int) {
			g.Neighbors(u, func(w int) {
				if nset[w] {
					count++
				}
				g.rt.Compute(1)
			})
		})
	}
	return count
}
