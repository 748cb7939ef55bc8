package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"silentshredder/internal/apprt"
	"silentshredder/internal/sim"
	"silentshredder/internal/stats"
)

// quantum is the round-robin interleave in trace operations per core
// turn, the interleave the experiments' multiprogrammed runs use.
const quantum = 1024

// sampleEvery is the in-situ sampling period of the traced run: every
// sampleEvery-th operation is timed. Malloc and Free are rare and always
// timed.
const sampleEvery = 64

// replay applies each core's trace to its runtime, round-robin in quanta
// of quantum operations, skipping cores whose trace has ended. A non-nil
// tracer times a sample of the operations.
func replay(rts []*apprt.Runtime, traces [][]apprt.TraceOp, tr *tracer) error {
	pos := make([]int, len(traces))
	for live := true; live; {
		live = false
		for c, rt := range rts {
			end := min(pos[c]+quantum, len(traces[c]))
			for i := pos[c]; i < end; i++ {
				var err error
				if tr != nil {
					err = tr.apply(rt, c, traces[c][i])
				} else {
					err = rt.Apply(traces[c][i])
				}
				if err != nil {
					return fmt.Errorf("core %d op %d: %w", c, i, err)
				}
			}
			pos[c] = end
			live = live || end < len(traces[c])
		}
	}
	return nil
}

// replayRun is one replay of a workload's traces on a fresh machine.
type replayRun struct {
	m *sim.Machine
	// Host time of the three phases: building the machine, replaying
	// the traces, and flushing the caches and the controller.
	build, replay, flush time.Duration
}

func (r replayRun) total() time.Duration { return r.build + r.replay + r.flush }

// replayOnce builds a machine from cfg, replays the traces and flushes the
// hierarchy and the controller, so that write counts cover everything the
// run produced. A panic inside the simulator is returned as an error: it
// counts as a failed run.
func replayOnce(cfg sim.Config, traces [][]apprt.TraceOp, tr *tracer) (r replayRun, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	t0 := time.Now()
	r.m, err = sim.New(cfg)
	if err != nil {
		return r, err
	}
	t1 := time.Now()
	rts := make([]*apprt.Runtime, len(traces))
	for c := range rts {
		rts[c] = r.m.Runtime(c)
	}
	if err := replay(rts, traces, tr); err != nil {
		return r, err
	}
	t2 := time.Now()
	r.m.Hier.FlushAll()
	t3 := time.Now()
	r.m.MC.Flush()
	t4 := time.Now()
	r.build, r.replay, r.flush = t1.Sub(t0), t2.Sub(t1), t4.Sub(t2)
	tr.span("sim.New", "run", -1, t0, t1)
	tr.span("replay", "run", -1, t1, t2)
	tr.span("hier.FlushAll", "run", -1, t2, t3)
	tr.span("memctrl.Flush", "run", -1, t3, t4)
	tr.span("run", "", -1, t0, t4)
	return r, nil
}

// digest is the SHA-256 of every statistic the machine registers, by exact
// value. Two runs of the same traces must produce the same digest.
func digest(s stats.Snapshot) string {
	h := sha256.New()
	for _, set := range s.Sets {
		for _, st := range set.Stats {
			fmt.Fprintf(h, "%s.%s=%x\n", set.Name, st.Name, math.Float64bits(st.Value))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hostSpan is one timed interval of the traced run, on the host clock.
type hostSpan struct {
	name, parent string
	core         int // -1 for machine-level phases
	start, end   time.Time
}

// tracer records the traced run's host-time spans in memory: the run's
// phases and a sample of the operations replayed. A nil tracer records
// nothing.
type tracer struct {
	n       int
	spans   []hostSpan
	samples map[apprt.TraceKind][]float64 // host ns per sampled operation
}

func newTracer() *tracer { return &tracer{samples: make(map[apprt.TraceKind][]float64)} }

func (t *tracer) span(name, parent string, core int, start, end time.Time) {
	if t != nil {
		t.spans = append(t.spans, hostSpan{name: name, parent: parent, core: core, start: start, end: end})
	}
}

func (t *tracer) apply(rt *apprt.Runtime, core int, op apprt.TraceOp) error {
	t.n++
	if t.n%sampleEvery != 0 && op.Kind != apprt.TraceMalloc && op.Kind != apprt.TraceFree {
		return rt.Apply(op)
	}
	start := time.Now()
	err := rt.Apply(op)
	end := time.Now()
	t.samples[op.Kind] = append(t.samples[op.Kind], float64(end.Sub(start)))
	t.span(kindName(op.Kind), "replay", core, start, end)
	return err
}

func kindName(k apprt.TraceKind) string {
	switch k {
	case apprt.TraceLoad:
		return "apprt.Load"
	case apprt.TraceStore:
		return "apprt.Store"
	case apprt.TraceCompute:
		return "apprt.Compute"
	case apprt.TraceMalloc:
		return "apprt.Malloc"
	case apprt.TraceFree:
		return "apprt.Free"
	case apprt.TraceMemset:
		return "apprt.Memset"
	case apprt.TraceShredRange:
		return "apprt.ShredRange"
	}
	return fmt.Sprintf("apprt.op%d", k)
}

// writeChrome writes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto). Machine-level phases are thread 0, core
// c's sampled operations thread c+1.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	var t0 time.Time
	for _, s := range t.spans {
		if t0.IsZero() || s.start.Before(t0) {
			t0 = s.start
		}
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		ev := event{
			Name: s.name, Ph: "X", PID: 1, TID: s.core + 1,
			TS:  float64(s.start.Sub(t0)) / 1e3,
			Dur: float64(s.end.Sub(s.start)) / 1e3,
		}
		if s.parent != "" {
			ev.Args = map[string]string{"parent": s.parent}
		}
		events = append(events, ev)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
