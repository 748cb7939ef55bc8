package memctrl

// ECC and retirement unit tests: a scripted injector drives exact
// syndromes through the controller's read path, so every branch of the
// SECDED/retirement machinery is pinned — corrections, proactive
// retirement, uncorrectable data loss, counter-line loss degrading the
// whole page, and fail-stop on spare exhaustion.

import (
	"bytes"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/countercache"
	"silentshredder/internal/ctr"
	"silentshredder/internal/nvm"
	"silentshredder/internal/physmem"
	"silentshredder/internal/wearlevel"
)

// scriptInjector implements nvm.Injector with fully scripted syndromes:
// the next read of an address reports the queued outcome (the delivered
// bits are flipped to match so the model stays honest).
type scriptInjector struct {
	flips map[addr.Phys][]int // queue of BitErrors counts per address
	torn  map[addr.Phys]bool
}

// ctrAddr is the counter-region device address of page p's counter line.
func ctrAddr(p addr.PageNum) addr.Phys {
	return countercache.RegionBase + addr.Phys(p)<<addr.BlockShift
}

func newScriptInjector() *scriptInjector {
	return &scriptInjector{flips: make(map[addr.Phys][]int), torn: make(map[addr.Phys]bool)}
}

func (s *scriptInjector) queueFlips(a addr.Phys, n int) { s.flips[a] = append(s.flips[a], n) }

func (s *scriptInjector) FilterWrite(a addr.Phys, wear uint64, old, src []byte) bool { return true }

func (s *scriptInjector) CorruptRead(a addr.Phys, dst []byte) nvm.ReadOutcome {
	var oc nvm.ReadOutcome
	if q := s.flips[a]; len(q) > 0 {
		oc.BitErrors = q[0]
		s.flips[a] = q[1:]
		for b := 0; b < oc.BitErrors; b++ {
			dst[b>>3] ^= 1 << (b & 7)
		}
	}
	oc.Torn = s.torn[a]
	return oc
}

// sinkRecorder captures FaultSink notifications.
type sinkRecorder struct {
	pages map[addr.PageNum]int
}

func (s *sinkRecorder) PageDegraded(p addr.PageNum, linesLost int) {
	if s.pages == nil {
		s.pages = make(map[addr.PageNum]int)
	}
	s.pages[p] = linesLost
}

// newECCMC builds a Silent Shredder controller with ECC on and a scripted
// injector attached to its device.
func newECCMC(t *testing.T) (*Controller, *scriptInjector, *physmem.Image, *sinkRecorder) {
	t.Helper()
	dev := nvm.New(nvm.DefaultConfig())
	inj := newScriptInjector()
	dev.SetInjector(inj)
	img := physmem.New(true)
	cfg := DefaultConfig(SilentShredder)
	cfg.ECC = true
	mc, err := New(cfg, dev, img)
	if err != nil {
		t.Fatal(err)
	}
	mc.ecc.remap = wearlevel.NewRemap(64)
	sink := &sinkRecorder{}
	mc.SetFaultSink(sink)
	return mc, inj, img, sink
}

func TestECCSingleBitCorrected(t *testing.T) {
	mc, inj, img, _ := newECCMC(t)
	a := addr.PageNum(3).BlockAddr(5)
	data := bytes.Repeat([]byte{0x5C}, addr.BlockSize)
	store(mc, img, a, data)

	inj.queueFlips(a, 1)
	got := make([]byte, addr.BlockSize)
	mc.ReadBlock(a, got)
	if !bytes.Equal(got, data) {
		t.Fatal("corrected read returned wrong data")
	}
	if mc.EccCorrections() != 1 {
		t.Fatalf("EccCorrections = %d, want 1", mc.EccCorrections())
	}
	if mc.EccUncorrectable() != 0 || mc.LinesRetired() != 0 {
		t.Fatal("single-bit error must not retire anything")
	}
}

func TestECCProactiveRetirementPreservesContents(t *testing.T) {
	mc, inj, img, _ := newECCMC(t)
	a := addr.PageNum(4).BlockAddr(0)
	data := bytes.Repeat([]byte{0xA7}, addr.BlockSize)
	store(mc, img, a, data)

	// DefaultRetireAfterCorrections (4) corrections on the same line
	// trigger proactive retirement with contents preserved.
	for i := 0; i < DefaultRetireAfterCorrections; i++ {
		inj.queueFlips(a, 1)
		got := make([]byte, addr.BlockSize)
		mc.ReadBlock(a, got)
		if !bytes.Equal(got, data) {
			t.Fatalf("read %d corrupted", i)
		}
	}
	if mc.LinesRetired() != 1 {
		t.Fatalf("LinesRetired = %d, want 1", mc.LinesRetired())
	}
	if mc.ecc.remap.Resolve(a) == a {
		t.Fatal("line not in the remap")
	}
	// The data survives on the spare line, readable through the remap.
	got := make([]byte, addr.BlockSize)
	mc.ReadBlock(a, got)
	if !bytes.Equal(got, data) {
		t.Fatal("retired line lost its contents")
	}
	if mc.EccUncorrectable() != 0 {
		t.Fatal("proactive retirement is not an uncorrectable error")
	}
}

func TestECCUncorrectableLosesLineGracefully(t *testing.T) {
	mc, inj, img, _ := newECCMC(t)
	p := addr.PageNum(6)
	a := p.BlockAddr(2)
	store(mc, img, a, bytes.Repeat([]byte{0xEE}, addr.BlockSize))
	keep := p.BlockAddr(3)
	keepData := bytes.Repeat([]byte{0x31}, addr.BlockSize)
	store(mc, img, keep, keepData)

	inj.queueFlips(a, 2) // double-bit: uncorrectable
	got := bytes.Repeat([]byte{0xFF}, addr.BlockSize)
	mc.ReadBlock(a, got)
	if !bytes.Equal(got, make([]byte, addr.BlockSize)) {
		t.Fatal("lost line must read architectural zeros, never garbage")
	}
	if mc.EccUncorrectable() != 1 || mc.LinesRetired() != 1 {
		t.Fatalf("uncorr=%d retired=%d, want 1/1", mc.EccUncorrectable(), mc.LinesRetired())
	}
	// The loss is per-line: neighbours are intact, and the lost line keeps
	// reading zeros on subsequent (fault-free) reads.
	mc.ReadBlock(keep, got)
	if !bytes.Equal(got, keepData) {
		t.Fatal("neighbour line damaged by the loss")
	}
	mc.ReadBlock(a, got)
	if !bytes.Equal(got, make([]byte, addr.BlockSize)) {
		t.Fatal("lost line did not stay zero")
	}
	// Counter monotonicity held: the zero writeback bumped the minor.
	mc.Flush()
	if cb := mc.cc.PersistedValue(p); cb.Minor[2] == ctr.MinorShredded {
		t.Fatal("lost line left in shredded state instead of a bumped minor")
	}
}

func TestECCPageDegradationNotifiesSink(t *testing.T) {
	mc, inj, img, sink := newECCMC(t)
	p := addr.PageNum(8)
	for i := 0; i < addr.BlocksPerPage; i++ {
		store(mc, img, p.BlockAddr(i), bytes.Repeat([]byte{byte(i + 1)}, addr.BlockSize))
	}
	// Lose DefaultRetirePageLines lines of the page.
	for i := 0; i < DefaultRetirePageLines; i++ {
		inj.queueFlips(p.BlockAddr(i), 3)
		mc.ReadBlock(p.BlockAddr(i), make([]byte, addr.BlockSize))
	}
	if got := sink.pages[p]; got != DefaultRetirePageLines {
		t.Fatalf("sink notified with %d lines, want %d", got, DefaultRetirePageLines)
	}
}

func TestECCCounterLineCorrection(t *testing.T) {
	mc, inj, img, _ := newECCMC(t)
	p := addr.PageNum(10)
	data := bytes.Repeat([]byte{0x44}, addr.BlockSize)
	store(mc, img, p.BlockAddr(0), data)
	mc.Flush()
	// Empty the counter cache so the next access re-fetches through the
	// ECC-checked backend with a queued single-bit syndrome.
	mc.cc.Crash()
	ctrA := ctrAddr(p)
	inj.queueFlips(ctrA, 1)
	before := mc.EccCorrections()
	got := make([]byte, addr.BlockSize)
	mc.ReadBlock(p.BlockAddr(0), got)
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted by counter-line flip")
	}
	if mc.EccCorrections() != before+1 {
		t.Fatalf("counter correction not counted: %d -> %d", before, mc.EccCorrections())
	}
}

func TestECCCounterLineLossDegradesPage(t *testing.T) {
	mc, inj, img, sink := newECCMC(t)
	p := addr.PageNum(12)
	for i := 0; i < 4; i++ {
		store(mc, img, p.BlockAddr(i), bytes.Repeat([]byte{0x66}, addr.BlockSize))
	}
	mc.Flush()
	mc.cc.Crash()
	ctrA := ctrAddr(p)
	inj.queueFlips(ctrA, 2) // uncorrectable counter line
	got := make([]byte, addr.BlockSize)
	// The discovering read completes under the recovered persistent
	// counters; the wholesale degradation drains before it returns.
	mc.ReadBlock(p.BlockAddr(0), got)
	for i := 0; i < 4; i++ {
		mc.ReadBlock(p.BlockAddr(i), got)
		if !bytes.Equal(got, make([]byte, addr.BlockSize)) {
			t.Fatalf("block %d: page with untrusted counters must degrade to zeros", i)
		}
	}
	if sink.pages[p] != addr.BlocksPerPage {
		t.Fatalf("sink reported %d lines, want whole page", sink.pages[p])
	}
	if mc.EccUncorrectable() == 0 || mc.ecc.remap.Resolve(ctrA) == ctrA {
		t.Fatal("counter-line loss not counted and retired")
	}
}

func TestECCSpareExhaustionFailsStop(t *testing.T) {
	dev := nvm.New(nvm.DefaultConfig())
	inj := newScriptInjector()
	dev.SetInjector(inj)
	cfg := DefaultConfig(SilentShredder)
	cfg.ECC = true
	mc, err := New(cfg, dev, physmem.New(true))
	if err != nil {
		t.Fatal(err)
	}
	mc.ecc.remap = wearlevel.NewRemap(1)
	img := physmem.New(true) // unused shadow; stores go through mc.img anyway
	_ = img
	a0 := addr.PageNum(1).BlockAddr(0)
	a1 := addr.PageNum(1).BlockAddr(1)
	mc.WriteBlock(a0)
	mc.WriteBlock(a1)
	inj.queueFlips(a0, 2)
	mc.ReadBlock(a0, make([]byte, addr.BlockSize)) // consumes the only spare
	defer func() {
		if recover() == nil {
			t.Fatal("spare exhaustion must fail stop")
		}
	}()
	inj.queueFlips(a1, 2)
	mc.ReadBlock(a1, make([]byte, addr.BlockSize))
}
