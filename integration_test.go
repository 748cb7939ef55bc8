// Integration tests: end-to-end scenarios crossing every module — the
// attack model of the paper's §4.1, crash persistence (§2.3/§4.3), and
// full-machine workload runs under both controller personalities.
package silentshredder_test

import (
	"bytes"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/ctr"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/sim"
	"silentshredder/internal/workloads/graph"
)

func integrationMachine(t *testing.T, mode memctrl.Mode, zm kernel.ZeroMode) *sim.Machine {
	t.Helper()
	cfg := sim.ScaledConfig(mode, zm, 64)
	cfg.Hier.Cores = 2
	cfg.MemPages = 1 << 14
	cfg.VerifyPlaintext = true
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Attack model (§4.1): an adversary with physical access scans the DIMM.
// Nothing a process wrote may appear in the raw cells, before or after
// shredding.
func TestAttackModelDIMMScan(t *testing.T) {
	m := integrationMachine(t, memctrl.SilentShredder, kernel.ZeroShred)
	rt := m.Runtime(0)
	secret := bytes.Repeat([]byte("SECRET42"), 8) // one full block
	va := rt.Malloc(addr.PageSize)
	rt.StoreBytes(va, secret)
	m.Hier.FlushAll() // force the data to the device

	scan := func() [][]byte {
		var blocks [][]byte
		m.Dev.ForEachPage(func(p addr.PageNum, data *[addr.PageSize]byte) {
			for i := 0; i < addr.PageSize; i += addr.BlockSize {
				blocks = append(blocks, append([]byte(nil), data[i:i+addr.BlockSize]...))
			}
		})
		return blocks
	}
	for _, blk := range scan() {
		if bytes.Contains(blk, []byte("SECRET42")) {
			t.Fatal("plaintext visible on the DIMM")
		}
	}

	// After the process exits and its pages are shredded, even an
	// adversary who also steals the memory key cannot decrypt: the IVs
	// are gone.
	pte, _ := rt.Process().AS.Lookup(va.Page())
	m.Kernel.ExitProcess(rt.Process())
	rt2 := m.Runtime(1)
	vb := rt2.Malloc(addr.PageSize)
	rt2.Store(vb, 1) // reallocates + shreds the page

	raw := make([]byte, addr.BlockSize)
	m.Dev.Peek(pte.PPN.Addr(), raw)
	cb := m.MC.CounterCache().Peek(pte.PPN)
	eng, _ := ctr.NewEngine(memctrl.DefaultConfig(memctrl.SilentShredder).Key)
	eng.Decrypt(raw, pte.PPN, 0, cb.Major, ctr.MinorFirst)
	if bytes.Contains(raw, []byte("SECRET42")) {
		t.Fatal("secret recoverable after shred with stolen key")
	}
}

// Crash persistence (§2.3): a shred must survive power loss. With the
// battery-backed counter cache it does; dropping the battery loses
// un-flushed counter updates and the old data becomes readable again —
// the failure mode the paper requires implementations to avoid.
func TestShredPersistence(t *testing.T) {
	run := func(battery bool) []byte {
		cfg := sim.ScaledConfig(memctrl.SilentShredder, kernel.ZeroShred, 64)
		cfg.Hier.Cores = 1
		cfg.MemPages = 1 << 12
		cfg.MemCtrl.CounterCache.BatteryBacked = battery
		m := sim.MustNew(cfg)
		rt := m.Runtime(0)
		va := rt.Malloc(addr.PageSize)
		secret := []byte("DO-NOT-LEAK")
		rt.StoreBytes(va, secret)
		m.Hier.FlushAll()
		m.MC.Flush() // secret + its counters are persistent

		pte, _ := rt.Process().AS.Lookup(va.Page())
		m.Kernel.ClearPage(0, pte.PPN) // shred (counters only dirty in cache)
		m.Crash()

		got := make([]byte, len(secret))
		m.Img.Read(pte.PPN.Addr(), got)
		return got
	}

	if got := run(true); !bytes.Equal(got, make([]byte, 11)) {
		t.Fatalf("battery-backed shred lost on crash: %q", got)
	}
	if got := run(false); bytes.Equal(got, make([]byte, 11)) {
		t.Fatal("expected the unbatteried crash to lose the shred (the §4.3 hazard)")
	}
}

// A full application (graph analytics) must compute identical results on
// the baseline and Silent Shredder machines — the mechanism is invisible
// to software except for performance.
func TestWorkloadResultsIdenticalAcrossModes(t *testing.T) {
	run := func(mode memctrl.Mode, zm kernel.ZeroMode) (uint64, int) {
		m := integrationMachine(t, mode, zm)
		rt := m.Runtime(0)
		g := graph.Build(rt, graph.Gen{V: 256, E: 2048, Seed: 11, Skew: 1.2})
		tri := g.TriangleCount(0)
		colors := g.ColorGreedy()
		return tri, colors
	}
	t1, c1 := run(memctrl.Baseline, kernel.ZeroNonTemporal)
	t2, c2 := run(memctrl.SilentShredder, kernel.ZeroShred)
	if t1 != t2 || c1 != c2 {
		t.Fatalf("results diverged: triangles %d/%d colors %d/%d", t1, t2, c1, c2)
	}
}

// Page reuse at scale: hammer allocate/free cycles across two processes
// and verify isolation holds every time while no data write is ever spent
// on shredding.
func TestRepeatedReuseIsolation(t *testing.T) {
	m := integrationMachine(t, memctrl.SilentShredder, kernel.ZeroShred)
	for round := 0; round < 20; round++ {
		rt := m.Runtime(round % 2)
		va := rt.Malloc(2 * addr.PageSize)
		rt.StoreBytes(va, bytes.Repeat([]byte{byte(round + 1)}, 64))
		if got := rt.LoadBytes(va+64, 8); !bytes.Equal(got, make([]byte, 8)) {
			t.Fatalf("round %d: fresh memory not zero: %v", round, got)
		}
		m.Kernel.ExitProcess(rt.Process())
	}
	if m.MC.ZeroingWrites() != 0 {
		t.Fatalf("shredding cost %d data writes", m.MC.ZeroingWrites())
	}
	if m.MC.ShredCommands() == 0 {
		t.Fatal("no shredding happened")
	}
}

// Deterministic simulation: identical runs produce identical statistics.
func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		m := integrationMachine(t, memctrl.SilentShredder, kernel.ZeroShred)
		rt := m.Runtime(0)
		g := graph.Build(rt, graph.Gen{V: 128, E: 1024, Seed: 5, Skew: 1.1})
		g.PageRank(2)
		return m.TotalInstructions(), m.MaxCycles(), m.Dev.Writes()
	}
	i1, c1, w1 := run()
	i2, c2, w2 := run()
	if i1 != i2 || c1 != c2 || w1 != w2 {
		t.Fatalf("non-deterministic: (%d,%d,%d) vs (%d,%d,%d)", i1, c1, w1, i2, c2, w2)
	}
}

// Counter replay/tampering (§7.1): an adversary who rewrites the
// NVM-resident counters (e.g. rolling a minor counter back to force pad
// reuse) is caught by the Bonsai Merkle tree on the next counter fetch.
func TestCounterTamperingDetected(t *testing.T) {
	cfg := sim.ScaledConfig(memctrl.SilentShredder, kernel.ZeroShred, 64)
	cfg.Hier.Cores = 1
	cfg.MemPages = 1 << 12
	cfg.MemCtrl.Integrity = true
	cfg.MemCtrl.IntegrityCfg.Depth = 12
	cfg.MemCtrl.IntegrityCfg.CachedLevels = 4
	m := sim.MustNew(cfg)
	rt := m.Runtime(0)
	va := rt.Malloc(addr.PageSize)
	rt.Store(va, 7)
	pte, _ := rt.Process().AS.Lookup(va.Page())

	// Drain the dirty data first, then persist and forge the counters
	// behind the controller's back.
	m.Hier.FlushAll()
	m.MC.Flush()
	forged := m.MC.CounterCache().PersistedValue(pte.PPN)
	forged.Major += 41 // replayed/forged counter state
	m.MC.CounterCache().TamperPersisted(pte.PPN, forged)

	// Empty the counter cache so the next access re-fetches from NVM.
	m.MC.CounterCache().Crash()
	if m.MC.IntegrityFailures() != 0 {
		t.Fatal("premature failure count")
	}
	m.Hier.Read(0, pte.PPN.Addr())
	if m.MC.IntegrityFailures() == 0 {
		t.Fatal("forged counters not detected by the Merkle tree")
	}
}
