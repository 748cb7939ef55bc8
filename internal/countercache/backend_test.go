package countercache

// Backend-mediation tests: when an ECC layer installs itself as the
// cache's device backend, every counter-line fetch and writeback must be
// routed through it (and only through it), at the right addresses.

import (
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/clock"
)

type recordingBackend struct {
	reads  []addr.Phys
	writes []addr.Phys
	lastWr []byte
}

func (b *recordingBackend) ReadCounters(a addr.Phys) clock.Cycles {
	b.reads = append(b.reads, a)
	return 150
}

func (b *recordingBackend) WriteCounters(a addr.Phys, enc []byte) {
	b.writes = append(b.writes, a)
	b.lastWr = append(b.lastWr[:0], enc...)
}

func TestCtrAddrPageOfRoundTrip(t *testing.T) {
	cc, _ := newCC(t, smallCfg())
	for _, p := range []addr.PageNum{0, 1, 7, 4095} {
		a := ctrAddr(p)
		if a < RegionBase {
			t.Fatalf("CtrAddr(%v) = %v below RegionBase", p, a)
		}
		if got := cc.PageOf(a); got != p {
			t.Fatalf("PageOf(CtrAddr(%v)) = %v", p, got)
		}
	}
}

func TestBackendMediatesMisses(t *testing.T) {
	cc, dev := newCC(t, smallCfg())
	b := &recordingBackend{}
	cc.SetBackend(b)

	reads := devReads(dev)
	_, _, hit := cc.Get(7)
	if hit {
		t.Fatal("first access must miss")
	}
	if len(b.reads) != 1 || cc.PageOf(b.reads[0]) != 7 {
		t.Fatalf("backend reads = %v", b.reads)
	}
	if devReads(dev) != reads {
		t.Fatal("miss bypassed the backend straight to the device")
	}
}

func TestBackendMediatesWritebacks(t *testing.T) {
	cc, dev := newCC(t, smallCfg())
	b := &recordingBackend{}
	cc.SetBackend(b)

	cb, _, _ := cc.Get(3)
	cb.BumpMinor(0)
	cc.MarkDirty(3)
	devWrites := dev.Writes()
	cc.Flush()
	if len(b.writes) != 1 || cc.PageOf(b.writes[0]) != 3 {
		t.Fatalf("backend writes = %v", b.writes)
	}
	if len(b.lastWr) != addr.BlockSize {
		t.Fatalf("writeback payload %d bytes", len(b.lastWr))
	}
	if dev.Writes() != devWrites {
		t.Fatal("writeback bypassed the backend straight to the device")
	}
	// The persistent truth updated regardless of the mediation.
	if cc.PersistedValue(3).Minor[0] == 0 {
		t.Fatal("flush did not persist the bumped counter")
	}
}

func TestBackendWriteThrough(t *testing.T) {
	cfg := smallCfg()
	cfg.BatteryBacked = false
	cfg.WriteThrough = true
	cc, _ := newCC(t, cfg)
	b := &recordingBackend{}
	cc.SetBackend(b)

	cb, _, _ := cc.Get(5)
	cb.BumpMinor(1)
	cc.MarkDirty(5)
	// Write-through: the update hits the backend immediately, no flush.
	if len(b.writes) != 1 || cc.PageOf(b.writes[0]) != 5 {
		t.Fatalf("backend writes = %v", b.writes)
	}
}

func TestBackendNilRestoresDirectAccess(t *testing.T) {
	cc, dev := newCC(t, smallCfg())
	b := &recordingBackend{}
	cc.SetBackend(b)
	cc.SetBackend(nil)
	reads := devReads(dev)
	cc.Get(9)
	if len(b.reads) != 0 {
		t.Fatal("cleared backend still receiving traffic")
	}
	if devReads(dev) == reads {
		t.Fatal("direct device access not restored")
	}
}
