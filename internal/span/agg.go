package span

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"silentshredder/internal/stats"
)

// OpAgg accumulates one op class's attribution: how many spans, their
// total cycles, per-layer busy-cycle totals, and a latency histogram
// for quantiles.
type OpAgg struct {
	Count  uint64
	Cycles uint64
	Seg    [LayerCount]uint64
	Hist   stats.Histogram
}

// Other returns the op class's unattributed cycles: total minus the
// layer segments, clamped at zero (segments may oversubscribe the
// total under latency overlap — see the package comment).
func (a *OpAgg) Other() uint64 {
	var seg uint64
	for _, s := range a.Seg {
		seg += s
	}
	if a.Cycles <= seg {
		return 0
	}
	return a.Cycles - seg
}

// Agg is the "where do the cycles go" aggregate: per-op-class totals,
// globally and per tenant. The global table is inline (allocation-free
// in steady state); per-tenant tables are allocated once on a tenant's
// first completed span.
type Agg struct {
	Total   [OpCount]OpAgg
	tenants map[int32]*[OpCount]OpAgg
}

func (a *Agg) observe(sp *Span) {
	fold := func(t *[OpCount]OpAgg) {
		oa := &t[sp.Op]
		oa.Count++
		oa.Cycles += sp.Cycles
		for l, c := range sp.Seg {
			oa.Seg[l] += c
		}
		oa.Hist.Observe(float64(sp.Cycles))
	}
	fold(&a.Total)
	if sp.Tenant >= 0 {
		if a.tenants == nil {
			a.tenants = make(map[int32]*[OpCount]OpAgg)
		}
		t := a.tenants[sp.Tenant]
		if t == nil {
			t = new([OpCount]OpAgg)
			a.tenants[sp.Tenant] = t
		}
		fold(t)
	}
}

// Tenants returns the tenant ids with recorded spans, ascending.
func (a *Agg) Tenants() []int32 {
	ids := make([]int32, 0, len(a.tenants))
	for id := range a.tenants {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Tenant returns one tenant's op table (nil if the tenant recorded no
// spans).
func (a *Agg) Tenant(id int32) *[OpCount]OpAgg {
	return a.tenants[id]
}

// breakdownRow flattens one (tenant, op) cell for export.
type breakdownRow struct {
	Run    string             `json:"run"`
	Tenant string             `json:"tenant"` // "all" or the tenant id
	Op     string             `json:"op"`
	Count  uint64             `json:"count"`
	Cycles uint64             `json:"cycles"`
	Mean   float64            `json:"mean"`
	P50    float64            `json:"p50"`
	P99    float64            `json:"p99"`
	Seg    map[string]uint64  `json:"-"`
	Layers []breakdownSegCell `json:"layers"`
}

type breakdownSegCell struct {
	Layer  string `json:"layer"`
	Cycles uint64 `json:"cycles"`
}

func (a *Agg) rows(run string) []breakdownRow {
	var out []breakdownRow
	emit := func(tenant string, t *[OpCount]OpAgg) {
		for op := range t {
			oa := &t[op]
			if oa.Count == 0 {
				continue
			}
			q := oa.Hist.Quantiles([]float64{0.50, 0.99})
			row := breakdownRow{
				Run:    run,
				Tenant: tenant,
				Op:     Op(op).String(),
				Count:  oa.Count,
				Cycles: oa.Cycles,
				Mean:   oa.Hist.Mean(),
				P50:    q[0],
				P99:    q[1],
			}
			for l := Layer(0); l < LayerCount; l++ {
				row.Layers = append(row.Layers, breakdownSegCell{Layer: l.String(), Cycles: oa.Seg[l]})
			}
			row.Layers = append(row.Layers, breakdownSegCell{Layer: "other", Cycles: oa.Other()})
			out = append(out, row)
		}
	}
	emit("all", &a.Total)
	for _, id := range a.Tenants() {
		emit(strconv.Itoa(int(id)), a.tenants[id])
	}
	return out
}

// BreakdownCSVHeader returns the column header WriteBreakdownCSV emits.
func BreakdownCSVHeader() string {
	h := "run,tenant,op,count,cycles,mean,p50,p99"
	for l := Layer(0); l < LayerCount; l++ {
		h += "," + l.String()
	}
	return h + ",other"
}

// WriteBreakdownCSV renders the aggregate as a per-(tenant, op) CSV
// breakdown: one row per op class with spans, the "all" tenant first,
// then each tenant ascending. Deterministic byte-for-byte for a given
// aggregate.
func (a *Agg) WriteBreakdownCSV(w io.Writer, run string, header bool) error {
	if header {
		if _, err := fmt.Fprintln(w, BreakdownCSVHeader()); err != nil {
			return err
		}
	}
	for _, row := range a.rows(run) {
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%d,%d,%s,%s,%s",
			row.Run, row.Tenant, row.Op, row.Count, row.Cycles,
			formatG(row.Mean), formatG(row.P50), formatG(row.P99)); err != nil {
			return err
		}
		for _, cell := range row.Layers {
			if _, err := fmt.Fprintf(w, ",%d", cell.Cycles); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// NamedAgg pairs a run label with its aggregate for merged multi-run
// export.
type NamedAgg struct {
	Run string
	Agg *Agg
}

// WriteBreakdownJSONRuns renders several runs' aggregates as one JSON
// array — runs in slice order, rows within a run in the CSV order — so
// a whole sweep exports as a single valid document.
func WriteBreakdownJSONRuns(w io.Writer, runs []NamedAgg) error {
	rows := []breakdownRow{}
	for _, r := range runs {
		if r.Agg == nil {
			continue
		}
		rows = append(rows, r.Agg.rows(r.Run)...)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

func formatG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
