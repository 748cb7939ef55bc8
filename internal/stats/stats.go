// Package stats provides the lightweight instrumentation primitives used
// throughout the simulator: named counters, running means, histograms, and
// a registry that components attach their statistics to so the experiment
// harness can collect and print them uniformly.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Mean accumulates samples and reports their running mean.
type Mean struct {
	sum   float64
	count uint64
}

// Observe records one sample.
func (m *Mean) Observe(v float64) {
	m.sum += v
	m.count++
}

// Mean returns the running mean, or 0 when no samples were observed.
func (m *Mean) Mean() float64 {
	if m.count == 0 {
		return 0
	}
	return m.sum / float64(m.count)
}

// Reset clears all samples.
func (m *Mean) Reset() { m.sum, m.count = 0, 0 }

// Histogram counts samples in power-of-two buckets. Bucket i holds samples
// v with 2^(i-1) < v <= 2^i (bucket 0 holds v <= 1). It is used for
// latency distributions.
type Histogram struct {
	buckets [64]uint64
	total   uint64
	sum     float64
	max     float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.buckets[bucket(v)]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// bucket returns the index of the bucket holding v: the least i >= 0
// with v <= 2^i, capped at 63 (NaN goes to bucket 0).
//
// It reads the exponent math.Frexp would return straight from v's
// IEEE-754 bits: v = 1.f * 2^e, so 2^e <= v < 2^(e+1), and v is exactly
// 2^e when the fraction bits are zero. Frexp itself does not inline, and
// every controller read observes a histogram.
func bucket(v float64) int {
	if !(v > 1) {
		return 0
	}
	b := math.Float64bits(v) // sign bit clear: v > 1
	e := int(b>>52) - 1023
	if b&(1<<52-1) != 0 {
		e++
	}
	return min(e, 63)
}

// Reset clears all samples, buckets and the running max, returning the
// histogram to its zero state. Components embed histograms by value, so a
// method (rather than the struct-replace idiom) lets ResetStats clear them
// without copying, and keeps any future non-resettable fields safe.
func (h *Histogram) Reset() { *h = Histogram{} }

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the mean of observed samples.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the largest observed sample.
func (h *Histogram) Max() float64 { return h.max }

// Quantile returns an upper bound for the q-quantile using the bucket
// boundaries. Edge cases are defined as follows:
//   - an empty histogram returns 0 for every q;
//   - a NaN q returns 0;
//   - q <= 0 returns the upper bound of the smallest sample's bucket;
//   - q >= 1 returns the upper bound of the largest sample's bucket
//     (so Quantile(1) >= Max() always holds);
//   - a single-observation histogram returns that sample's bucket upper
//     bound for every q in [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 || math.IsNaN(q) {
		return 0
	}
	return h.quantileTarget(h.quantileRank(q))
}

// quantileRank converts q to the 0-based sample rank Quantile resolves.
func (h *Histogram) quantileRank(q float64) uint64 {
	if q <= 0 {
		return 0
	}
	target := uint64(q * float64(h.total))
	if target >= h.total {
		target = h.total - 1
	}
	return target
}

// quantileTarget returns the bucket upper bound containing the sample
// of the given 0-based rank.
func (h *Histogram) quantileTarget(target uint64) float64 {
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen > target {
			return math.Pow(2, float64(i))
		}
	}
	return h.max
}

// Quantiles returns the Quantile value for each q in qs in one bucket
// pass (the epoch sampler calls this every sampling boundary). The
// result matches calling Quantile per element exactly.
func (h *Histogram) Quantiles(qs []float64) []float64 {
	out := make([]float64, len(qs))
	if h.total == 0 {
		return out
	}
	// Resolve ranks, then walk the buckets once, answering queries in
	// rank order.
	type query struct {
		rank uint64
		idx  int
	}
	queries := make([]query, 0, len(qs))
	for i, q := range qs {
		if math.IsNaN(q) {
			continue // out[i] stays 0
		}
		queries = append(queries, query{rank: h.quantileRank(q), idx: i})
	}
	sort.Slice(queries, func(a, b int) bool { return queries[a].rank < queries[b].rank })
	var seen uint64
	qi := 0
	for i, n := range h.buckets {
		seen += n
		for qi < len(queries) && seen > queries[qi].rank {
			out[queries[qi].idx] = math.Pow(2, float64(i))
			qi++
		}
		if qi == len(queries) {
			break
		}
	}
	for ; qi < len(queries); qi++ {
		out[queries[qi].idx] = h.max
	}
	return out
}

// Set is an ordered collection of named statistics owned by one component.
type Set struct {
	name  string
	order []string
	vals  map[string]func() float64
}

// NewSet creates a named statistics set.
func NewSet(name string) *Set {
	return &Set{name: name, vals: make(map[string]func() float64)}
}

// Name returns the component name of the set.
func (s *Set) Name() string { return s.name }

// RegisterCounter exposes a counter under the given stat name.
func (s *Set) RegisterCounter(name string, c *Counter) {
	s.register(name, func() float64 { return float64(c.Value()) })
}

// RegisterMean exposes a running mean under the given stat name.
func (s *Set) RegisterMean(name string, m *Mean) {
	s.register(name, m.Mean)
}

// RegisterFunc exposes an arbitrary derived value.
func (s *Set) RegisterFunc(name string, f func() float64) {
	s.register(name, f)
}

func (s *Set) register(name string, f func() float64) {
	if _, dup := s.vals[name]; !dup {
		s.order = append(s.order, name)
	}
	s.vals[name] = f
}

// Get returns the current value of a stat and whether it exists.
func (s *Set) Get(name string) (float64, bool) {
	f, ok := s.vals[name]
	if !ok {
		return 0, false
	}
	return f(), true
}

// String renders the set as "name{stat=value, ...}".
func (s *Set) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s{", s.name)
	for i, n := range s.order {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%.4g", n, s.vals[n]())
	}
	b.WriteString("}")
	return b.String()
}

// Registry aggregates the Sets of every component in a machine.
type Registry struct {
	sets []*Set
}

// Register adds a component's statistics set.
func (r *Registry) Register(s *Set) { r.sets = append(r.sets, s) }

// SnapshotStat is one captured statistic value.
type SnapshotStat struct {
	Name  string
	Value float64
}

// SnapshotSet is one component's captured statistics, in registration
// order.
type SnapshotSet struct {
	Name  string
	Stats []SnapshotStat
}

// Snapshot is an immutable, by-value capture of a Registry's statistics at
// one instant. Live Sets read their component's counters through
// closures, so a Registry is only safe to consult from the goroutine that
// owns its machine; a Snapshot carries plain values and can be sent across
// channels, merged, and rendered by any goroutine. The parallel sweep
// engine communicates per-run results this way: one machine per worker
// goroutine, snapshots by value to the collector.
type Snapshot struct {
	Sets []SnapshotSet
}

// Snapshot captures every registered set's current values.
func (r *Registry) Snapshot() Snapshot {
	out := Snapshot{Sets: make([]SnapshotSet, 0, len(r.sets))}
	for _, s := range r.sets {
		ss := SnapshotSet{Name: s.name, Stats: make([]SnapshotStat, 0, len(s.order))}
		for _, n := range s.order {
			v, _ := s.Get(n)
			ss.Stats = append(ss.Stats, SnapshotStat{Name: n, Value: v})
		}
		out.Sets = append(out.Sets, ss)
	}
	return out
}

// Lookup returns the captured value of "component.stat", e.g.
// "nvm.writes".
func (s Snapshot) Lookup(path string) (float64, bool) {
	dot := strings.LastIndex(path, ".")
	if dot < 0 {
		return 0, false
	}
	comp, stat := path[:dot], path[dot+1:]
	for _, set := range s.Sets {
		if set.Name != comp {
			continue
		}
		for _, st := range set.Stats {
			if st.Name == stat {
				return st.Value, true
			}
		}
	}
	return 0, false
}

// Dump renders the snapshot one stat per line, sets sorted by component
// name, so a run's output is the same bytes however the snapshot travelled
// from its machine to the printer.
func (s Snapshot) Dump() string {
	sets := make([]SnapshotSet, len(s.Sets))
	copy(sets, s.Sets)
	sort.SliceStable(sets, func(i, j int) bool { return sets[i].Name < sets[j].Name })
	var b strings.Builder
	for _, set := range sets {
		for _, st := range set.Stats {
			fmt.Fprintf(&b, "%s.%s = %.6g\n", set.Name, st.Name, st.Value)
		}
	}
	return b.String()
}
