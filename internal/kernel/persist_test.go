package kernel_test

import (
	"bytes"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/sim"
)

func persistMachine(t *testing.T) *sim.Machine {
	t.Helper()
	cfg := sim.ScaledConfig(memctrl.SilentShredder, kernel.ZeroShred, 64)
	cfg.Hier.Cores = 1
	cfg.MemPages = 1 << 13
	cfg.VerifyPlaintext = true
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPersistentRegionSurvivesCrash(t *testing.T) {
	m := persistMachine(t)
	k := m.Kernel
	p := k.NewProcess()
	va, err := k.PersistentMmap(0, p, "db", 2)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("durable record v1")
	pa, _ := k.Translate(0, p, va, true)
	m.Hier.Write(0, pa)
	m.Img.Write(pa, data)
	k.PersistRange(0, p, va, 2) // clwb + pcommit
	m.Crash()

	// Reboot: a fresh process recovers the region by name.
	p2 := k.NewProcess()
	va2, err := k.RecoverPersistent(p2, "db")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	pa2, _ := k.Translate(0, p2, va2, false)
	m.Hier.Read(0, pa2)
	m.Img.Read(pa2, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("persistent data lost: %q", got)
	}
}

func TestUnpersistedWritesLostOnCrash(t *testing.T) {
	m := persistMachine(t)
	k := m.Kernel
	p := k.NewProcess()
	va, _ := k.PersistentMmap(0, p, "db", 1)
	pa, _ := k.Translate(0, p, va, true)
	m.Hier.Write(0, pa)
	m.Img.Write(pa, []byte("not flushed"))
	// No PersistRange: the data is dirty in cache only.
	m.Crash()
	p2 := k.NewProcess()
	va2, _ := k.RecoverPersistent(p2, "db")
	pa2, _ := k.Translate(0, p2, va2, false)
	got := make([]byte, 11)
	m.Img.Read(pa2, got)
	if bytes.Equal(got, []byte("not flushed")) {
		t.Fatal("unflushed write must not survive a crash")
	}
}

func TestUncommittedRegionLostOnCrash(t *testing.T) {
	m := persistMachine(t)
	k := m.Kernel
	p := k.NewProcess()
	if _, err := k.PersistentMmap(0, p, "committed", 1); err != nil {
		t.Fatal(err)
	}
	// PersistentMmap commits the journal, so the region outlives the crash.
	m.Crash()
	if _, err := k.RecoverPersistent(k.NewProcess(), "committed"); err != nil {
		t.Fatal("committed region must be recoverable")
	}
}

func TestDuplicatePersistentRegionRejected(t *testing.T) {
	m := persistMachine(t)
	k := m.Kernel
	p := k.NewProcess()
	if _, err := k.PersistentMmap(0, p, "x", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := k.PersistentMmap(0, p, "x", 1); err == nil {
		t.Fatal("duplicate region accepted")
	}
	if _, err := k.RecoverPersistent(p, "missing"); err == nil {
		t.Fatal("unknown region recovered")
	}
}

func TestPersistentPagesNotCleared_OnRecovery(t *testing.T) {
	m := persistMachine(t)
	k := m.Kernel
	p := k.NewProcess()
	va, _ := k.PersistentMmap(0, p, "keep", 1)
	cleared := k.PagesCleared()
	if _, err := k.RecoverPersistent(k.NewProcess(), "keep"); err != nil {
		t.Fatal(err)
	}
	if k.PagesCleared() != cleared {
		t.Fatal("recovery must not shred persistent pages")
	}
	_ = va
	if len(k.PersistentRegions()) != 1 {
		t.Fatalf("regions = %v", k.PersistentRegions())
	}
	if k.JournalCommits() == 0 {
		t.Fatal("journal never committed")
	}
}

func TestPersistRangeCountsDirtyLines(t *testing.T) {
	m := persistMachine(t)
	k := m.Kernel
	p := k.NewProcess()
	va, _ := k.PersistentMmap(0, p, "d", 1)
	pa, _ := k.Translate(0, p, va, true)
	m.Hier.Write(0, pa)
	writes := m.MC.DataWrites()
	lat := k.PersistRange(0, p, va, 1)
	if m.MC.DataWrites() == writes {
		t.Fatal("PersistRange must write dirty lines back")
	}
	if lat == 0 {
		t.Fatal("PersistRange must cost cycles for dirty lines")
	}
	if addr.Phys(0) != 0 { // keep addr import honest
		t.Fatal("unreachable")
	}
}
