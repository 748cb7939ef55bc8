package memctrl

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"silentshredder/internal/addr"
	"silentshredder/internal/countercache"
	"silentshredder/internal/ctr"
	"silentshredder/internal/nvm"
	"silentshredder/internal/physmem"
)

// newMC builds a controller with data storage and plaintext verification on.
func newMC(t *testing.T, mode Mode) (*Controller, *nvm.Device, *physmem.Image) {
	t.Helper()
	dev := nvm.New(nvm.DefaultConfig())
	img := physmem.New(true)
	cfg := DefaultConfig(mode)
	cfg.VerifyPlaintext = true
	mc, err := New(cfg, dev, img)
	if err != nil {
		t.Fatal(err)
	}
	return mc, dev, img
}

// store models the CPU architectural effect of a store plus the eventual
// dirty writeback of the block.
func store(mc *Controller, img *physmem.Image, a addr.Phys, data []byte) {
	img.Write(a, data)
	mc.WriteBlock(a)
}

func TestBadKeyRejected(t *testing.T) {
	cfg := DefaultConfig(Baseline)
	cfg.Key = []byte("short")
	if _, err := New(cfg, nvm.New(nvm.DefaultConfig()), physmem.New(false)); err == nil {
		t.Fatal("want error for invalid key")
	}
}

func TestModeString(t *testing.T) {
	if Baseline.String() != "baseline" || SilentShredder.String() != "silent-shredder" {
		t.Fatal("mode strings wrong")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	mc, dev, img := newMC(t, SilentShredder)
	a := addr.PageNum(5).BlockAddr(3)
	data := bytes.Repeat([]byte{0xC3}, addr.BlockSize)
	store(mc, img, a, data)

	got := make([]byte, addr.BlockSize)
	mc.ReadBlock(a, got)
	if !bytes.Equal(got, data) {
		t.Fatal("read back differs from written data")
	}

	// The device must hold ciphertext, not plaintext.
	raw := make([]byte, addr.BlockSize)
	if !dev.Peek(a, raw) {
		t.Fatal("device must store data")
	}
	if bytes.Equal(raw, data) {
		t.Fatal("NVM stores plaintext — encryption datapath broken")
	}
}

func TestShredEliminatesWrites(t *testing.T) {
	mc, dev, img := newMC(t, SilentShredder)
	p := addr.PageNum(7)
	// Dirty the page first so there is real data to shred.
	for i := 0; i < addr.BlocksPerPage; i++ {
		store(mc, img, p.BlockAddr(i), bytes.Repeat([]byte{byte(i + 1)}, addr.BlockSize))
	}
	writesBefore := dev.Writes()
	mc.Shred(p)
	// Shred writes nothing to the data region (counter writeback is
	// deferred and lazy).
	if got := dev.Writes() - writesBefore; got != 0 {
		t.Fatalf("shred performed %d device writes, want 0", got)
	}
	if mc.ShredCommands() != 1 || mc.WritesAvoided() != 64 {
		t.Fatalf("shred stats = %d/%d", mc.ShredCommands(), mc.WritesAvoided())
	}
}

func TestShreddedPageReadsAsZeros(t *testing.T) {
	mc, _, img := newMC(t, SilentShredder)
	p := addr.PageNum(9)
	store(mc, img, p.BlockAddr(0), bytes.Repeat([]byte{0xEE}, addr.BlockSize))
	mc.Shred(p)

	dataReadsBefore := mc.DataReads()
	got := bytes.Repeat([]byte{1}, addr.BlockSize)
	mc.ReadBlock(p.BlockAddr(0), got)
	if !bytes.Equal(got, make([]byte, addr.BlockSize)) {
		t.Fatal("shredded block must read as zeros")
	}
	if mc.DataReads() != dataReadsBefore {
		t.Fatal("zero-fill read must not access NVM")
	}
	if mc.ZeroFillReads() != 1 {
		t.Fatalf("ZeroFillReads = %d", mc.ZeroFillReads())
	}
}

func TestShredRendersOldCiphertextUnintelligible(t *testing.T) {
	mc, dev, img := newMC(t, SilentShredder)
	p := addr.PageNum(11)
	secret := bytes.Repeat([]byte{0x42}, addr.BlockSize)
	store(mc, img, p.BlockAddr(0), secret)
	mc.Shred(p)

	// Attack model: read the raw NVM contents and attempt decryption
	// with the *current* (post-shred) counters — the only counters the
	// system retains.
	raw := make([]byte, addr.BlockSize)
	dev.Peek(p.BlockAddr(0), raw)
	cb := mc.CounterCache().Peek(p)
	eng, _ := ctr.NewEngine(DefaultConfig(SilentShredder).Key)
	eng.Decrypt(raw, p, 0, cb.Major, ctr.MinorFirst)
	if bytes.Equal(raw, secret) {
		t.Fatal("old plaintext recoverable after shred")
	}
}

func TestFirstWriteAfterShredUsesMinorOne(t *testing.T) {
	mc, _, img := newMC(t, SilentShredder)
	p := addr.PageNum(13)
	mc.Shred(p)
	store(mc, img, p.BlockAddr(2), bytes.Repeat([]byte{9}, addr.BlockSize))
	cb := mc.CounterCache().Peek(p)
	if cb.Minor[2] != ctr.MinorFirst {
		t.Fatalf("minor = %d, want %d", cb.Minor[2], ctr.MinorFirst)
	}
	if cb.Shredded(2) {
		t.Fatal("written block must leave shredded state")
	}
	if !cb.Shredded(3) {
		t.Fatal("untouched block must stay shredded")
	}
	// And it must decrypt correctly afterwards.
	got := make([]byte, addr.BlockSize)
	mc.ReadBlock(p.BlockAddr(2), got)
	if got[0] != 9 {
		t.Fatal("post-shred write round trip broken")
	}
}

func TestShredPanicsInBaseline(t *testing.T) {
	mc, _, _ := newMC(t, Baseline)
	defer func() {
		if recover() == nil {
			t.Fatal("Shred must panic in baseline mode")
		}
	}()
	mc.Shred(0)
}

func TestBaselineZeroPageDirectWrites64Blocks(t *testing.T) {
	mc, dev, _ := newMC(t, Baseline)
	before := dev.Writes()
	mc.ZeroPageDirect(3)
	if got := dev.Writes() - before; got != 64 {
		t.Fatalf("direct zeroing wrote %d blocks, want 64", got)
	}
	if mc.ZeroingWrites() != 64 {
		t.Fatalf("ZeroingWrites = %d", mc.ZeroingWrites())
	}
	// Page must read as zeros afterwards.
	got := bytes.Repeat([]byte{1}, addr.BlockSize)
	mc.ReadBlock(addr.PageNum(3).BlockAddr(5), got)
	if !bytes.Equal(got, make([]byte, addr.BlockSize)) {
		t.Fatal("zeroed page must read as zeros")
	}
}

func TestZeroFillReadFasterThanNVMRead(t *testing.T) {
	mc, _, img := newMC(t, SilentShredder)
	p := addr.PageNum(20)
	store(mc, img, p.BlockAddr(0), bytes.Repeat([]byte{1}, addr.BlockSize))
	// Warm the counter cache, then measure.
	buf := make([]byte, addr.BlockSize)
	nvmLat := mc.ReadBlock(p.BlockAddr(0), buf)
	mc.Shred(p)
	zeroLat := mc.ReadBlock(p.BlockAddr(0), buf)
	if zeroLat >= nvmLat {
		t.Fatalf("zero-fill latency %d not faster than NVM read %d", zeroLat, nvmLat)
	}
	if zeroLat != mc.cfg.CounterCache.HitLatency {
		t.Fatalf("zero-fill latency = %d, want counter-cache hit latency", zeroLat)
	}
}

func TestMinorOverflowTriggersReencryption(t *testing.T) {
	mc, _, img := newMC(t, SilentShredder)
	p := addr.PageNum(30)
	a := p.BlockAddr(0)
	// A freshly shredded block starts at minor 0; 127 writes reach
	// MinorMax, the 128th overflows.
	mc.Shred(p)
	data := bytes.Repeat([]byte{1}, addr.BlockSize)
	for i := 0; i < ctr.MinorMax; i++ {
		data[0] = byte(i)
		store(mc, img, a, data)
	}
	if mc.Reencryptions() != 0 {
		t.Fatalf("premature re-encryption after %d writes", ctr.MinorMax)
	}
	store(mc, img, a, data)
	if mc.Reencryptions() != 1 {
		t.Fatalf("Reencryptions = %d, want 1", mc.Reencryptions())
	}
	cb := mc.CounterCache().Peek(p)
	if cb.Major != 2 { // 1 from shred, 1 from re-encryption
		t.Fatalf("Major = %d, want 2", cb.Major)
	}
	if cb.Minor[0] != ctr.MinorFirst+1 { // reset to 1, then the pending write bumped it
		t.Fatalf("Minor[0] = %d", cb.Minor[0])
	}
	// Previously shredded blocks lose zero-fill after re-encryption but
	// must still read as zeros (now from explicit ciphertext).
	got := bytes.Repeat([]byte{7}, addr.BlockSize)
	mc.ReadBlock(p.BlockAddr(1), got)
	if !bytes.Equal(got, make([]byte, addr.BlockSize)) {
		t.Fatal("re-encrypted shredded block must still read as zeros")
	}
}

func TestShredVsDirectZeroWriteSavings(t *testing.T) {
	// The headline effect: shredding N pages writes nothing; direct
	// zeroing writes 64 blocks per page.
	devSS := nvm.New(nvm.DefaultConfig())
	mcSS, _ := New(DefaultConfig(SilentShredder), devSS, physmem.New(true))
	devBL := nvm.New(nvm.DefaultConfig())
	mcBL, _ := New(DefaultConfig(Baseline), devBL, physmem.New(true))

	for p := addr.PageNum(0); p < 10; p++ {
		mcSS.Shred(p)
		mcBL.ZeroPageDirect(p)
	}
	mcSS.Flush()
	mcBL.Flush()
	// SS writes only counter blocks (10); baseline writes 640 data + 10 counters.
	if devSS.Writes() >= devBL.Writes()/10 {
		t.Fatalf("SS writes %d vs baseline %d: savings too small", devSS.Writes(), devBL.Writes())
	}
	if mcBL.DataWrites() != 640 {
		t.Fatalf("baseline data writes = %d", mcBL.DataWrites())
	}
	if mcSS.DataWrites() != 0 {
		t.Fatalf("SS data writes = %d", mcSS.DataWrites())
	}
}

func TestIntegrityVerificationOnCounterMiss(t *testing.T) {
	dev := nvm.New(nvm.DefaultConfig())
	img := physmem.New(true)
	cfg := DefaultConfig(SilentShredder)
	cfg.Integrity = true
	cfg.IntegrityCfg.Depth = 12
	cfg.IntegrityCfg.CachedLevels = 4
	// Tiny counter cache to force evictions and re-fetches.
	cfg.CounterCache = countercache.Config{Size: 256, Assoc: 2, HitLatency: 10, BatteryBacked: true}
	mc, err := New(cfg, dev, img)
	if err != nil {
		t.Fatal(err)
	}
	for p := addr.PageNum(0); p < 32; p++ {
		mc.Shred(p)
	}
	buf := make([]byte, addr.BlockSize)
	for p := addr.PageNum(0); p < 32; p++ {
		mc.ReadBlock(p.BlockAddr(0), buf)
	}
	if mc.IntegrityFailures() != 0 {
		t.Fatalf("unexpected integrity failures: %d", mc.IntegrityFailures())
	}
}

func TestResetStats(t *testing.T) {
	mc, dev, img := newMC(t, SilentShredder)
	store(mc, img, 0, bytes.Repeat([]byte{1}, 64))
	mc.ReadBlock(0, make([]byte, 64))
	mc.ResetStats()
	if mc.DataWrites() != 0 || mc.TotalReads() != 0 || dev.Writes() != 0 {
		t.Fatal("stats not reset")
	}
}

func TestStatsSet(t *testing.T) {
	mc, _, _ := newMC(t, SilentShredder)
	mc.Shred(0)
	s := mc.StatsSet()
	if v, ok := s.Get("shred_commands"); !ok || v != 1 {
		t.Fatalf("shred_commands = %v %v", v, ok)
	}
}

// Property: under any interleaving of stores, shreds and zeroings, a read
// through the controller always returns the architecturally expected
// contents (the functional image), and plaintext verification never trips.
func TestFunctionalCorrectnessProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		mc, _, img := newMC(t, SilentShredder)
		const npages = 4
		for _, op := range ops {
			p := addr.PageNum(op % npages)
			bi := int(op>>2) % addr.BlocksPerPage
			a := p.BlockAddr(bi)
			switch op % 5 {
			case 0, 1:
				store(mc, img, a, bytes.Repeat([]byte{byte(op)}, addr.BlockSize))
			case 2:
				got := make([]byte, addr.BlockSize)
				mc.ReadBlock(a, got)
				want := img.ReadBlock(a)
				if !bytes.Equal(got, want[:]) {
					return false
				}
			case 3:
				mc.Shred(p)
			case 4:
				mc.ZeroPageDirect(p)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkReadBlockShredded(b *testing.B) {
	dev := nvm.New(nvm.DefaultConfig())
	mc, _ := New(DefaultConfig(SilentShredder), dev, physmem.New(true))
	mc.Shred(0)
	buf := make([]byte, addr.BlockSize)
	for i := 0; i < b.N; i++ {
		mc.ReadBlock(addr.PageNum(0).BlockAddr(i%64), buf)
	}
}

func BenchmarkWriteBlock(b *testing.B) {
	dev := nvm.New(nvm.DefaultConfig())
	img := physmem.New(true)
	mc, _ := New(DefaultConfig(SilentShredder), dev, img)
	data := bytes.Repeat([]byte{1}, addr.BlockSize)
	for i := 0; i < b.N; i++ {
		a := addr.PageNum(i % 1024).BlockAddr(i % 64)
		img.Write(a, data)
		mc.WriteBlock(a)
	}
}

func TestWriteQueueBlocksReads(t *testing.T) {
	dev := nvm.New(nvm.DefaultConfig())
	img := physmem.New(true)
	cfg := DefaultConfig(Baseline)
	cfg.WriteQueueDepth = 8
	mc, err := New(cfg, dev, img)
	if err != nil {
		t.Fatal(err)
	}
	// Flood the write queue (a zeroing burst), then read.
	mc.ZeroPageDirect(1)
	buf := make([]byte, addr.BlockSize)
	latBlocked := mc.ReadBlock(addr.PageNum(1).BlockAddr(0), buf)
	if mc.ReadsBlockedByWrites() == 0 {
		t.Fatal("read behind a write burst must stall")
	}
	// Drain the queue with reads; once below the watermark, reads are fast.
	for i := 0; i < 8; i++ {
		mc.ReadBlock(addr.PageNum(1).BlockAddr(i%64), buf)
	}
	blocked := mc.ReadsBlockedByWrites()
	latClear := mc.ReadBlock(addr.PageNum(1).BlockAddr(9), buf)
	if mc.ReadsBlockedByWrites() != blocked {
		t.Fatal("drained queue must not block reads")
	}
	if latClear >= latBlocked {
		t.Fatalf("unblocked read (%d) must beat blocked read (%d)", latClear, latBlocked)
	}
}

func TestWriteQueueDisabledByDefault(t *testing.T) {
	mc, _, _ := newMC(t, Baseline)
	mc.ZeroPageDirect(1)
	mc.ReadBlock(addr.PageNum(1).BlockAddr(0), make([]byte, addr.BlockSize))
	if mc.ReadsBlockedByWrites() != 0 {
		t.Fatal("queue model must be off by default")
	}
}

// TestControllerBankStorm is the controller-level bank-storm gate: a
// controller over a deliberately tiny banked device (every queue two
// deep) services a stream that concentrates writes on one bank while
// spraying reads, writes and shreds across all of them. The bank
// invariants must hold throughout, and the queues must drain to zero at
// quiesce.
func TestControllerBankStorm(t *testing.T) {
	dcfg := nvm.DefaultConfig()
	dcfg.Channels = 2
	dcfg.Banks = 4
	dcfg.BankQueueDepth = 2
	dev := nvm.New(dcfg)
	img := physmem.New(true)
	cfg := DefaultConfig(SilentShredder)
	cfg.VerifyPlaintext = true
	mc, err := New(cfg, dev, img)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, addr.BlockSize)
	for round := 0; round < 50; round++ {
		p := addr.PageNum(10 + round%4)
		for i := 0; i < addr.BlocksPerPage; i++ {
			a := p.BlockAddr(i)
			if i%2 == 0 {
				// Even block indices of one channel concentrate on a
				// single bank; odd ones spray.
				a = addr.PageNum(10).BlockAddr(0)
			}
			rng.Read(buf)
			store(mc, img, a, buf)
			if rng.Intn(4) == 0 {
				mc.ReadBlock(a, buf)
			}
		}
		mc.Shred(p)
		if err := dev.CheckBankInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if dev.DrainStalls() == 0 {
		t.Error("storm produced no drain stalls on depth-2 queues; not a storm")
	}
	dev.Quiesce()
	s := dev.StatsSet("nvm")
	enq, _ := s.Get("wq_enqueued")
	drained, _ := s.Get("wq_drained")
	if enq == 0 || enq != drained {
		t.Fatalf("%v writes queued, %v drained after quiesce", enq, drained)
	}
	if err := dev.CheckBankInvariants(); err != nil {
		t.Fatal(err)
	}
}
