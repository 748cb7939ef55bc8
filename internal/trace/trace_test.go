package trace

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"silentshredder/internal/addr"
	"silentshredder/internal/apprt"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/sim"
	"silentshredder/internal/workloads/spec"
)

// ReadAll decodes an entire trace (the fuzz target and the round-trip
// tests read whole streams).
func ReadAll(r io.Reader) ([]apprt.TraceOp, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var ops []apprt.TraceOp
	for {
		op, err := tr.Next()
		if err == io.EOF {
			return ops, nil
		}
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
}

func machine(t *testing.T) *sim.Machine {
	t.Helper()
	cfg := sim.ScaledConfig(memctrl.SilentShredder, kernel.ZeroShred, 128)
	cfg.Hier.Cores = 1
	cfg.MemPages = 1 << 15
	cfg.StoreData = false
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Property: records round-trip through the binary codec.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(kinds []uint8, vas []uint64, args []uint64) bool {
		n := len(kinds)
		if len(vas) < n {
			n = len(vas)
		}
		if len(args) < n {
			n = len(args)
		}
		var ops []apprt.TraceOp
		for i := 0; i < n; i++ {
			ops = append(ops, apprt.TraceOp{
				Kind: apprt.TraceKind(kinds[i]%7 + 1),
				VA:   addr.Virt(vas[i]),
				Arg:  args[i],
			})
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, op := range ops {
			w.Write(op)
		}
		if w.Flush() != nil || w.Count() != uint64(len(ops)) {
			return false
		}
		got, err := ReadAll(&buf)
		if err != nil || len(got) != len(ops) {
			return false
		}
		for i := range ops {
			if got[i] != ops[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBadHeaderRejected(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(apprt.TraceOp{Kind: apprt.TraceLoad, VA: 1})
	w.Flush()
	trunc := buf.Bytes()[:buf.Len()-3]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatalf("truncated record error = %v", err)
	}
}

func TestDecodeErrorPaths(t *testing.T) {
	// Header shorter than the magic.
	if _, err := NewReader(bytes.NewReader(Magic[:5])); err == nil {
		t.Fatal("truncated header accepted")
	}
	// Correct magic prefix but an unsupported version byte.
	bad := Magic
	bad[7] = 99
	if _, err := NewReader(bytes.NewReader(bad[:])); err == nil {
		t.Fatal("wrong version accepted")
	}
	// ReadAll must surface a mid-stream truncation as an error, not as a
	// silently shorter trace.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := 0; i < 3; i++ {
		w.Write(apprt.TraceOp{Kind: apprt.TraceStore, VA: addr.Virt(i), Arg: uint64(i)})
	}
	w.Flush()
	if _, err := ReadAll(bytes.NewReader(buf.Bytes()[:buf.Len()-5])); err == nil {
		t.Fatal("truncated stream decoded without error")
	}
	// A clean record boundary is EOF, not an error.
	ops, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil || len(ops) != 3 {
		t.Fatalf("clean stream: %d ops, err %v", len(ops), err)
	}
}

func TestUnknownKindRejectedOnReplay(t *testing.T) {
	m := machine(t)
	rt := m.Runtime(0)
	if err := Replay(rt, apprt.TraceOp{Kind: 99}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestRecordReplayReproducesRun(t *testing.T) {
	profile, _ := spec.ByName("gcc")
	profile.InitPages = 24

	// Record a run.
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m1 := machine(t)
	rt1 := m1.Runtime(0)
	rt1.SetTraceHook(w.Hook())
	spec.Run(rt1, profile, 42)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() == 0 {
		t.Fatal("nothing recorded")
	}

	// Replay on a fresh, identically configured machine.
	m2 := machine(t)
	rt2 := m2.Runtime(0)
	n, err := ReplayAll(bytes.NewReader(buf.Bytes()), rt2)
	if err != nil {
		t.Fatal(err)
	}
	if n != w.Count() {
		t.Fatalf("replayed %d of %d records", n, w.Count())
	}
	if m1.TotalInstructions() != m2.TotalInstructions() {
		t.Fatalf("instructions: recorded %d, replayed %d",
			m1.TotalInstructions(), m2.TotalInstructions())
	}
	if m1.MaxCycles() != m2.MaxCycles() {
		t.Fatalf("cycles: recorded %d, replayed %d", m1.MaxCycles(), m2.MaxCycles())
	}
	r1, _ := m1.Dev.StatsSet("nvm").Get("reads")
	r2, _ := m2.Dev.StatsSet("nvm").Get("reads")
	if m1.Dev.Writes() != m2.Dev.Writes() || r1 != r2 {
		t.Fatal("device traffic differs between record and replay")
	}
}

// The trace-driven what-if: one recorded workload replayed on baseline vs
// Silent Shredder machines shows the write savings without re-running the
// workload logic.
func TestReplayAcrossControllerModes(t *testing.T) {
	profile, _ := spec.ByName("mcf")
	profile.InitPages = 24

	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	mRec := machine(t)
	rtRec := mRec.Runtime(0)
	rtRec.SetTraceHook(w.Hook())
	spec.Run(rtRec, profile, 7)
	w.Flush()

	run := func(mode memctrl.Mode, zm kernel.ZeroMode) uint64 {
		cfg := sim.ScaledConfig(mode, zm, 128)
		cfg.Hier.Cores = 1
		cfg.MemPages = 1 << 15
		cfg.StoreData = false
		m := sim.MustNew(cfg)
		if _, err := ReplayAll(bytes.NewReader(buf.Bytes()), m.Runtime(0)); err != nil {
			t.Fatal(err)
		}
		m.Hier.FlushAll()
		m.MC.Flush()
		return m.Dev.Writes()
	}
	ss := run(memctrl.SilentShredder, kernel.ZeroShred)
	bl := run(memctrl.Baseline, kernel.ZeroNonTemporal)
	if ss >= bl {
		t.Fatalf("replayed SS writes %d must be below baseline %d", ss, bl)
	}
}

func TestMemsetRecordCarriesParameters(t *testing.T) {
	m := machine(t)
	rt := m.Runtime(0)
	var got []apprt.TraceOp
	rt.SetTraceHook(func(op apprt.TraceOp) { got = append(got, op) })
	va := rt.Malloc(4 * addr.PageSize)
	rt.MemsetNT(va, 0xAB, 4*addr.PageSize)
	var ms *apprt.TraceOp
	for i := range got {
		if got[i].Kind == apprt.TraceMemset {
			ms = &got[i]
		}
	}
	if ms == nil {
		t.Fatal("no memset record")
	}
	if int(ms.Arg>>9) != 4*addr.PageSize || ms.Arg>>8&1 != 1 || byte(ms.Arg) != 0xAB {
		t.Fatalf("memset record arg = %#x", ms.Arg)
	}
}
