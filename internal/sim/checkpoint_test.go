package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/apprt"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/oracle"
	"silentshredder/internal/trace"
)

func TestCheckpointRoundTrip(t *testing.T) {
	src := MustNew(testConfig(memctrl.SilentShredder, kernel.ZeroShred))
	rt := src.Runtime(0)
	va := rt.Malloc(4 * addr.PageSize)
	rt.StoreBytes(va, []byte("checkpointed state"))
	pte, _ := rt.Process().AS.Lookup(va.Page())

	var buf bytes.Buffer
	if err := src.SaveMemoryState(&buf); err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh machine with the same configuration. The
	// restored DIMM decrypts to the same architectural contents.
	dst := MustNew(testConfig(memctrl.SilentShredder, kernel.ZeroShred))
	if err := dst.LoadMemoryState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 18)
	dst.Img.Read(pte.PPN.Addr(), got)
	if string(got) != "checkpointed state" {
		t.Fatalf("restored contents = %q", got)
	}
	// Counters restored too: reads through the restored controller
	// decrypt correctly (VerifyPlaintext would panic otherwise).
	lat := dst.Hier.Read(0, pte.PPN.Addr())
	if lat == 0 {
		t.Fatal("read through restored machine failed")
	}
	// Wear history travels with the device.
	if dst.Dev.MaxWear() != src.Dev.MaxWear() {
		t.Fatalf("wear not restored: %d vs %d", dst.Dev.MaxWear(), src.Dev.MaxWear())
	}
}

func TestCheckpointShreddedStateSurvives(t *testing.T) {
	src := MustNew(testConfig(memctrl.SilentShredder, kernel.ZeroShred))
	rt := src.Runtime(0)
	va := rt.Malloc(addr.PageSize)
	rt.StoreBytes(va, []byte("sensitive"))
	pte, _ := rt.Process().AS.Lookup(va.Page())
	src.Hier.FlushAll()
	src.MC.Shred(pte.PPN)

	var buf bytes.Buffer
	if err := src.SaveMemoryState(&buf); err != nil {
		t.Fatal(err)
	}
	dst := MustNew(testConfig(memctrl.SilentShredder, kernel.ZeroShred))
	if err := dst.LoadMemoryState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// The shred is part of the persistent state: the page reads zeros
	// on the restored machine.
	got := make([]byte, addr.BlockSize)
	dst.MC.ReadBlock(pte.PPN.Addr(), got)
	if !bytes.Equal(got, make([]byte, addr.BlockSize)) {
		t.Fatalf("shredded page leaked through checkpoint: %q", got[:9])
	}
}

func TestCheckpointBadStreamRejected(t *testing.T) {
	m := MustNew(testConfig(memctrl.SilentShredder, kernel.ZeroShred))
	if err := m.LoadMemoryState(strings.NewReader("garbage")); err == nil {
		t.Fatal("garbage accepted as checkpoint")
	}
}

// TestCheckpointMidWorkloadRoundTrip is the checkpoint fidelity property:
// save a machine halfway through a generated workload, restore into a
// fresh machine and require bit-identical persistent state, then replay
// the remainder on the interrupted machine and require its final state
// *and every statistic* to equal an uninterrupted run's. (SaveMemoryState
// drains the caches, so the uninterrupted reference performs the same
// drain at the same operation index.)
func TestCheckpointMidWorkloadRoundTrip(t *testing.T) {
	w := oracle.Generate(oracle.DefaultGenConfig(21))
	k := len(w.Ops) / 2
	cfg := testConfig(memctrl.SilentShredder, kernel.ZeroShred)

	replay := func(rt *apprt.Runtime, ops []apprt.TraceOp) {
		t.Helper()
		for i, op := range ops {
			if err := trace.Replay(rt, op); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}

	// Reference run A: uninterrupted, with the checkpoint's drain
	// performed at the same op index.
	a := MustNew(cfg)
	rtA := a.Runtime(0)
	replay(rtA, w.Ops[:k])
	a.Hier.FlushAll()
	a.MC.Flush()
	replay(rtA, w.Ops[k:])

	// Run B: checkpoint at op k.
	b := MustNew(cfg)
	rtB := b.Runtime(0)
	replay(rtB, w.Ops[:k])
	var buf bytes.Buffer
	if err := b.SaveMemoryState(&buf); err != nil {
		t.Fatal(err)
	}

	// Restored machine: persistent state identical to B's at the save.
	c := MustNew(cfg)
	if err := c.LoadMemoryState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Img.Snapshot(), b.Img.Snapshot()) {
		t.Fatal("architectural image differs after restore")
	}
	if !reflect.DeepEqual(c.MC.CounterCache().SnapshotRegion(), b.MC.CounterCache().SnapshotRegion()) {
		t.Fatal("counter region differs after restore")
	}
	if !reflect.DeepEqual(c.Dev.Snapshot(), b.Dev.Snapshot()) {
		t.Fatal("NVM device state differs after restore")
	}

	// B replays the remainder: the interruption must be invisible.
	replay(rtB, w.Ops[k:])
	if !reflect.DeepEqual(a.Img.Snapshot(), b.Img.Snapshot()) {
		t.Fatal("final architectural state diverged from the uninterrupted run")
	}
	if !reflect.DeepEqual(a.MC.CounterCache().SnapshotRegion(), b.MC.CounterCache().SnapshotRegion()) {
		t.Fatal("final counter region diverged from the uninterrupted run")
	}
	if ad, bd := a.Snapshot().Dump(), b.Snapshot().Dump(); ad != bd {
		t.Fatalf("statistics diverged from the uninterrupted run:\n--- uninterrupted\n%s\n--- checkpointed\n%s", ad, bd)
	}
	// And the final machine satisfies every architectural invariant.
	if err := b.RunInvariantSweep(); err != nil {
		t.Fatalf("invariant sweep: %v", err)
	}
}

// TestCheckpointBytesDeterministic: a checkpoint is a function of the
// machine's state, so two saves of one state, and the saves of two
// machines that ran the same workload, are identical byte for byte and
// load back to that state.
func TestCheckpointBytesDeterministic(t *testing.T) {
	w := oracle.Generate(oracle.DefaultGenConfig(5))
	cfg := testConfig(memctrl.SilentShredder, kernel.ZeroShred)
	save := func(m *Machine) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := m.SaveMemoryState(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var saves [][]byte
	var last *Machine
	for range 2 {
		m := MustNew(cfg)
		rt := m.Runtime(0)
		for i, op := range w.Ops {
			if err := trace.Replay(rt, op); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		saves = append(saves, save(m), save(m))
		last = m
	}
	for i, b := range saves[1:] {
		if !bytes.Equal(b, saves[0]) {
			t.Fatalf("save %d differs from save 0 (%d vs %d bytes)", i+1, len(b), len(saves[0]))
		}
	}
	if st := last.Dev.Snapshot(); len(st.Pages) < 2 || len(st.Wear) < 2 {
		t.Fatalf("workload left %d device pages and %d worn blocks; the test needs several of each", len(st.Pages), len(st.Wear))
	}

	restored := MustNew(cfg)
	if err := restored.LoadMemoryState(bytes.NewReader(saves[0])); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Dev.Snapshot(), last.Dev.Snapshot()) ||
		!reflect.DeepEqual(restored.MC.CounterCache().SnapshotRegion(), last.MC.CounterCache().SnapshotRegion()) ||
		!reflect.DeepEqual(restored.Img.Snapshot(), last.Img.Snapshot()) {
		t.Fatal("restored state differs from the saved machine's")
	}
	if again := save(restored); !bytes.Equal(again, saves[0]) {
		t.Fatal("re-saving a restored machine changed the bytes")
	}
}

func TestCheckpointTimingOnlyIntoFunctional(t *testing.T) {
	// A timing-only machine's checkpoint has no image; restoring into a
	// functional machine reconstructs contents from the (absent)
	// ciphertext without error.
	cfgT := testConfig(memctrl.SilentShredder, kernel.ZeroShred)
	cfgT.StoreData = false
	cfgT.VerifyPlaintext = false
	src := MustNew(cfgT)
	rt := src.Runtime(0)
	rt.Store(rt.Malloc(addr.PageSize), 7)

	var buf bytes.Buffer
	if err := src.SaveMemoryState(&buf); err != nil {
		t.Fatal(err)
	}
	dst := MustNew(testConfig(memctrl.SilentShredder, kernel.ZeroShred))
	if err := dst.LoadMemoryState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}
