// Package obscli is the command-line glue for the observability layer:
// the -obs-* flag set shared by shredsim and experiments, per-run event
// and epoch capture as plain values (channel-safe across the sweep worker
// pool), and the deterministic merge that writes one Chrome trace / epoch
// CSV for a whole sweep.
//
// The determinism contract mirrors the sweep engine's: each worker owns a
// private bus and sampler, captures cross back by value, and the merge
// orders runs by submission index — so the exported artifacts are
// byte-identical for any -parallel value.
package obscli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"silentshredder/internal/obs"
	"silentshredder/internal/sim"
	"silentshredder/internal/span"
	"silentshredder/internal/stats"
)

// Flags is the observability flag set. Zero value = everything disabled,
// which is the byte-identical-default-output path.
type Flags struct {
	// Trace is the event-trace output file ("-" = stdout). Empty
	// disables event collection. A ".json" suffix selects the Chrome
	// trace_event format (load in chrome://tracing or Perfetto);
	// anything else writes the compact binary spill format (decode with
	// obs.DecodeSpill).
	Trace string
	// Ring is the per-run event ring capacity.
	Ring int
	// Epoch is the sampling interval in machine cycles; 0 disables the
	// epoch time series.
	Epoch uint64
	// EpochOut is the epoch series output file ("-" = stdout; ".json"
	// selects JSON rows, anything else CSV).
	EpochOut string
	// Spans is the latency-provenance breakdown output file. Empty
	// disables span recording entirely (the allocation-free nil-recorder
	// path). "-" = stdout; ".json" selects the JSON breakdown, anything
	// else the per-(tenant, op) CSV. Raw spans additionally join the
	// -obs-trace Chrome export when both are set.
	Spans string
	// SpanRing is the per-run span ring capacity for -obs-spans.
	SpanRing int
}

// Register installs the -obs-* flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Trace, "obs-trace", "", "write the machine event trace to this file (\"-\" = stdout, .json = Chrome trace_event for chrome://tracing, otherwise binary spill)")
	fs.IntVar(&f.Ring, "obs-ring", obs.DefaultRingCap, "per-run event ring capacity for -obs-trace (oldest events drop past this)")
	fs.Uint64Var(&f.Epoch, "obs-epoch", 0, "sample every registered statistic each N machine cycles into a time series (0 = off)")
	fs.StringVar(&f.EpochOut, "obs-epoch-out", "-", "epoch time-series output for -obs-epoch: \"-\" = stdout, .json = JSON, otherwise CSV")
	fs.StringVar(&f.Spans, "obs-spans", "", "write the per-op latency-provenance breakdown to this file (\"-\" = stdout, .json = JSON, otherwise CSV; empty = spans off)")
	fs.IntVar(&f.SpanRing, "obs-span-ring", span.DefaultRingCap, "per-run span ring capacity for -obs-spans (oldest spans drop past this; the breakdown aggregate is unaffected)")
}

// Enabled reports whether any observability capture is requested.
func (f *Flags) Enabled() bool { return f.Trace != "" || f.Epoch > 0 || f.Spans != "" }

// NewBus returns a fresh per-run event bus, or nil when tracing is off.
// Call once per run (per sweep worker job) so event order stays
// deterministic under parallel sweeps.
func (f *Flags) NewBus() *obs.Bus {
	if f.Trace == "" {
		return nil
	}
	return obs.NewBus(obs.Config{RingCap: f.Ring})
}

// NewSpans returns a fresh per-run span recorder, or nil (the
// allocation-free disabled path) when -obs-spans is off. Call once per
// run, like NewBus.
func (f *Flags) NewSpans() *span.Recorder {
	if f.Spans == "" {
		return nil
	}
	return span.NewRecorder(span.Config{RingCap: f.SpanRing})
}

// Capture is one run's observability output as plain values: safe to
// return from a sweep worker and merge on the collector side.
type Capture struct {
	Name   string
	Events []obs.Event
	// Dropped is the run's event-ring wrap count; surfaced in the
	// Chrome trace metadata and the epoch export footer so truncated
	// artifacts announce themselves.
	Dropped uint64
	Epochs  []stats.Epoch
	Extra   []string // tracked-histogram column names (sampler ExtraNames)
	// Spans / SpanAgg / SpanDropped are the run's latency-provenance
	// output: the raw span window (ring contents, oldest first), the
	// full attribution aggregate, and the span-ring wrap count.
	Spans       []span.Span
	SpanAgg     *span.Agg
	SpanDropped uint64
}

// Capture extracts the run's events and epoch series from the machine
// the worker just ran. bus must be the one NewBus returned for this run.
func (f *Flags) Capture(name string, bus *obs.Bus, m *sim.Machine) Capture {
	c := Capture{Name: name}
	if bus != nil {
		c.Events = bus.Events()
		c.Dropped = bus.Dropped()
	}
	if s := m.Sampler(); s != nil {
		c.Epochs = s.Epochs()
		c.Extra = s.ExtraNames()
	}
	if r := m.SpanRecorder(); r != nil {
		c.Spans = r.Spans()
		c.SpanAgg = r.Aggregate()
		c.SpanDropped = r.Dropped()
	}
	return c
}

// DefaultColumns is the exported epoch column set: the time-resolved
// telling of the paper's story — shred traffic and the writes it avoids,
// zero-fill read short-circuits, counter-cache hit rate, and (when ECC is
// on) wear-out retirements. extra is the sampler's ExtraNames (tracked
// histogram quantiles), appended in order.
func DefaultColumns(extra []string) []stats.EpochColumn {
	cols := []stats.EpochColumn{
		stats.PathColumn("memctrl.shred_commands"),
		stats.PathColumn("memctrl.writes_avoided"),
		stats.DeltaColumn("memctrl.writes_avoided"),
		stats.PathColumn("memctrl.zero_fill_reads"),
		stats.RatioColumn("ctrcache.hit_rate", "ctrcache.hits", "ctrcache.hits", "ctrcache.misses"),
		stats.PathColumn("memctrl.lines_retired"),
	}
	for i, name := range extra {
		cols = append(cols, stats.ExtraColumn(name, i))
	}
	return cols
}

// Write renders the merged artifacts for the captures of one sweep, in
// order; an event trace, epoch series or span breakdown sent to "-" goes
// to stdout. It is a no-op for disabled flags.
func (f *Flags) Write(stdout io.Writer, captures []Capture) error {
	if f.Trace != "" {
		if err := writeTo(f.Trace, stdout, func(w io.Writer) error { return f.writeTrace(w, captures) }); err != nil {
			return err
		}
	}
	if f.Epoch > 0 {
		if err := writeTo(f.EpochOut, stdout, func(w io.Writer) error { return f.writeEpochs(w, captures) }); err != nil {
			return err
		}
	}
	if f.Spans != "" {
		return writeTo(f.Spans, stdout, func(w io.Writer) error { return f.writeSpans(w, captures) })
	}
	return nil
}

// writeTo runs write on stdout when path is "-" or empty, and otherwise
// on the file it creates at path.
func writeTo(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "-" || path == "" {
		return write(stdout)
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

func (f *Flags) writeTrace(w io.Writer, captures []Capture) error {
	if strings.HasSuffix(f.Trace, ".json") {
		runs := make([]obs.TraceRun, len(captures))
		for i, c := range captures {
			runs[i] = obs.TraceRun{Name: c.Name, Events: c.Events, Spans: c.Spans, Dropped: c.Dropped}
		}
		return obs.WriteChromeTrace(w, runs)
	}
	// Binary spill: one header+records section per run; the decoder
	// accepts the concatenation.
	for _, c := range captures {
		if err := obs.EncodeSpill(w, c.Events); err != nil {
			return err
		}
	}
	return nil
}

func (f *Flags) writeEpochs(w io.Writer, captures []Capture) error {
	// Columns come from the first run with tracked-histogram names; all
	// runs of one sweep share a machine configuration, so the sets agree.
	var extra []string
	for _, c := range captures {
		if len(c.Extra) > 0 {
			extra = c.Extra
			break
		}
	}
	cols := DefaultColumns(extra)
	if strings.HasSuffix(f.EpochOut, ".json") {
		return writeEpochJSON(w, captures, cols)
	}
	if err := stats.EpochCSVHeader(w, cols); err != nil {
		return err
	}
	for _, c := range captures {
		if err := stats.EpochCSVRows(w, c.Name, c.Epochs, cols); err != nil {
			return err
		}
	}
	// Footer: announce wrapped event rings so a series built from a
	// truncated event window is visibly truncated. Comment lines only —
	// absent entirely when nothing dropped, so intact exports are
	// byte-identical to pre-footer output.
	for _, c := range captures {
		if c.Dropped > 0 {
			if _, err := fmt.Fprintf(w, "# dropped run=%s events=%d\n", c.Name, c.Dropped); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSpans renders the merged latency-provenance breakdown for the
// captures of one sweep, in order: one CSV/JSON document, runs in
// submission order — byte-identical for any -parallel value.
func (f *Flags) writeSpans(w io.Writer, captures []Capture) error {
	if strings.HasSuffix(f.Spans, ".json") {
		runs := make([]span.NamedAgg, len(captures))
		for i, c := range captures {
			runs[i] = span.NamedAgg{Run: c.Name, Agg: c.SpanAgg}
		}
		return span.WriteBreakdownJSONRuns(w, runs)
	}
	header := true
	for _, c := range captures {
		if c.SpanAgg == nil {
			continue
		}
		if err := c.SpanAgg.WriteBreakdownCSV(w, c.Name, header); err != nil {
			return err
		}
		header = false
	}
	for _, c := range captures {
		if c.SpanDropped > 0 {
			if _, err := fmt.Fprintf(w, "# dropped run=%s spans=%d\n", c.Name, c.SpanDropped); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeEpochJSON merges every run into one JSON array.
func writeEpochJSON(w io.Writer, captures []Capture, cols []stats.EpochColumn) error {
	ew := &errWriter{w: w}
	ew.str("[\n")
	first := true
	for _, c := range captures {
		for i, ep := range c.Epochs {
			if !first {
				ew.str(",\n")
			}
			first = false
			ew.str(fmt.Sprintf("  {\"run\":%q,\"epoch\":%d,\"cycles\":%d", c.Name, ep.Index, ep.Cycles))
			for _, col := range cols {
				ew.str(fmt.Sprintf(",%q:%s", col.Name,
					strconv.FormatFloat(col.Value(i, c.Epochs), 'g', 6, 64)))
			}
			ew.str("}")
		}
	}
	// Trailing wrap markers, mirroring the CSV footer: present only for
	// runs whose event ring dropped, so intact exports are unchanged.
	for _, c := range captures {
		if c.Dropped > 0 {
			if !first {
				ew.str(",\n")
			}
			first = false
			ew.str(fmt.Sprintf("  {\"run\":%q,\"dropped_events\":%d}", c.Name, c.Dropped))
		}
	}
	ew.str("\n]\n")
	return ew.err
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) str(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}
