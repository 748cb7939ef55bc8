package nvm

import (
	"bytes"
	"testing"
	"testing/quick"

	"silentshredder/internal/addr"
	"silentshredder/internal/clock"
)

func blockOf(b byte) []byte { return bytes.Repeat([]byte{b}, addr.BlockSize) }

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ReadLatency != 150 {
		t.Errorf("ReadLatency = %d cycles, want 150 (75ns @ 2GHz)", cfg.ReadLatency)
	}
	if cfg.WriteLatency != 300 {
		t.Errorf("WriteLatency = %d cycles, want 300 (150ns @ 2GHz)", cfg.WriteLatency)
	}
	if cfg.Channels != 2 {
		t.Errorf("Channels = %d, want 2", cfg.Channels)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Banks = 0 // exact-latency assertions below
	d := New(cfg)
	w := blockOf(0x5A)
	lat := d.WriteBlock(0x1000, w)
	if lat != d.Config().WriteLatency {
		t.Errorf("write latency = %d", lat)
	}
	got := make([]byte, addr.BlockSize)
	lat = d.ReadBlock(0x1000, got)
	if lat != d.Config().ReadLatency {
		t.Errorf("read latency = %d", lat)
	}
	if !bytes.Equal(got, w) {
		t.Fatal("read back differs")
	}
	if d.reads.Value() != 1 || d.Writes() != 1 {
		t.Fatalf("reads/writes = %d/%d", d.reads.Value(), d.Writes())
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	d := New(DefaultConfig())
	got := blockOf(0xFF)
	d.ReadBlock(0x2000, got)
	if !bytes.Equal(got, blockOf(0)) {
		t.Fatal("unwritten block must read as zeros")
	}
}

func TestUnalignedAddressesShareBlock(t *testing.T) {
	d := New(DefaultConfig())
	d.WriteBlock(0x40, blockOf(7))
	got := make([]byte, addr.BlockSize)
	d.ReadBlock(0x7F, got) // same 64B block
	if got[0] != 7 {
		t.Fatal("unaligned read did not resolve to block base")
	}
}

func TestPeek(t *testing.T) {
	d := New(DefaultConfig())
	d.WriteBlock(0x40, blockOf(9))
	reads := d.reads.Value()
	got := make([]byte, addr.BlockSize)
	if !d.Peek(0x40, got) {
		t.Fatal("Peek must succeed with StoreData")
	}
	if got[0] != 9 || d.reads.Value() != reads {
		t.Fatal("Peek must return data without counting a read")
	}
	if !d.Peek(0x123450, got) || got[0] != 0 {
		t.Fatal("Peek of unwritten block must be zeros")
	}

	cfg := DefaultConfig()
	cfg.StoreData = false
	d2 := New(cfg)
	if d2.Peek(0, got) {
		t.Fatal("Peek must fail in timing-only mode")
	}
}

func TestTimingOnlyMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StoreData = false
	d := New(cfg)
	d.WriteBlock(0, blockOf(1))
	d.ReadBlock(0, nil)
	if d.Writes() != 1 || d.reads.Value() != 1 {
		t.Fatal("timing-only accesses must still be counted")
	}
	if d.bitsWritten.Value() != 512 {
		t.Fatalf("BitsWritten = %d, want 512", d.bitsWritten.Value())
	}
}

func TestDCWSkipsIdenticalWrite(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteMode = DCW
	cfg.Banks = 0 // exact-latency assertions below
	d := New(cfg)
	d.WriteBlock(0, blockOf(3))
	w, f := d.Writes(), d.BitsFlipped()
	lat := d.WriteBlock(0, blockOf(3))
	if d.Writes() != w || d.SkippedWrites() != 1 {
		t.Fatal("identical DCW write must be skipped")
	}
	if d.BitsFlipped() != f {
		t.Fatal("skipped write must not flip bits")
	}
	if lat != cfg.ReadLatency {
		t.Errorf("skipped DCW write latency = %d, want read latency", lat)
	}
}

func TestDCWCountsOnlyChangedBits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteMode = DCW
	d := New(cfg)
	d.WriteBlock(0, blockOf(0))
	before := d.BitsFlipped()
	next := blockOf(0)
	next[0] = 0x01 // one bit differs
	d.WriteBlock(0, next)
	if got := d.BitsFlipped() - before; got != 1 {
		t.Fatalf("flipped %d bits, want 1", got)
	}
}

// Property: FNW never flips more than half the cells plus flip bits,
// and the logical contents always read back correctly.
func TestFNWBoundsFlipsProperty(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteMode = FNW
	d := New(cfg)
	f := func(a, b [addr.BlockSize]byte) bool {
		d.WriteBlock(0x40, a[:])
		before := d.BitsFlipped()
		d.WriteBlock(0x40, b[:])
		flipped := d.BitsFlipped() - before
		// 8 words: each word at most 32 data cells + 1 flip bit.
		if flipped > 8*33 {
			return false
		}
		got := make([]byte, addr.BlockSize)
		d.ReadBlock(0x40, got)
		return bytes.Equal(got, b[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFNWInvertedWriteCheaper(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteMode = FNW
	d := New(cfg)
	d.WriteBlock(0, blockOf(0x00))
	before := d.BitsFlipped()
	d.WriteBlock(0, blockOf(0xFF)) // all bits change; FNW should invert
	flipped := d.BitsFlipped() - before
	if flipped != 8 { // one flip bit per 64-bit word
		t.Fatalf("flipped = %d, want 8 (flip bits only)", flipped)
	}
	got := make([]byte, addr.BlockSize)
	d.ReadBlock(0, got)
	if !bytes.Equal(got, blockOf(0xFF)) {
		t.Fatal("logical contents wrong after inverted store")
	}
}

func TestWearTracking(t *testing.T) {
	d := New(DefaultConfig())
	for i := 0; i < 5; i++ {
		d.WriteBlock(0x40, blockOf(byte(i)))
	}
	d.WriteBlock(0x80, blockOf(1))
	if d.wearOf(0x40) != 5 || d.wearOf(0x80) != 1 {
		t.Fatalf("wear = %d/%d", d.wearOf(0x40), d.wearOf(0x80))
	}
	if d.MaxWear() != 5 {
		t.Fatalf("MaxWear = %d", d.MaxWear())
	}
}

func TestChannelInterleaving(t *testing.T) {
	d := New(DefaultConfig())
	if d.Channel(0) == d.Channel(64) {
		t.Fatal("adjacent blocks must map to different channels")
	}
	if d.Channel(0) != d.Channel(128) {
		t.Fatal("channel mapping must have period Channels*BlockSize")
	}
}

func TestChannelsClampedToOne(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 0
	d := New(cfg)
	if d.Channel(0x40) != 0 {
		t.Fatal("single-channel fallback broken")
	}
}

func TestResetStatsPreservesWear(t *testing.T) {
	d := New(DefaultConfig())
	d.WriteBlock(0, blockOf(1))
	d.ReadBlock(0, make([]byte, 64))
	d.ResetStats()
	if d.reads.Value() != 0 || d.Writes() != 0 {
		t.Fatal("stats not reset")
	}
	if d.wearOf(0) != 1 {
		t.Fatal("wear must survive stat reset")
	}
}

func TestStatsSet(t *testing.T) {
	d := New(DefaultConfig())
	d.WriteBlock(0, blockOf(1))
	s := d.StatsSet("nvm")
	if v, ok := s.Get("writes"); !ok || v != 1 {
		t.Fatalf("stats writes = %v %v", v, ok)
	}
}

func TestWriteModeString(t *testing.T) {
	for m, want := range map[WriteMode]string{WriteAll: "write-all", DCW: "dcw", FNW: "fnw", WriteMode(9): "unknown"} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
}

func TestLatencyConversion(t *testing.T) {
	if clock.FromNs(75) != 150 || clock.FromNs(150) != 300 {
		t.Fatal("clock conversion wrong for Table 1 values")
	}
	if got := clock.Cycles(150).Ns(); got != 75 {
		t.Fatalf("Ns() = %v", got)
	}
	if got := clock.Cycles(clock.FrequencyHz).Seconds(); got != 1 {
		t.Fatalf("Seconds() = %v", got)
	}
}

func BenchmarkWriteBlock(b *testing.B) {
	d := New(DefaultConfig())
	buf := blockOf(1)
	b.SetBytes(addr.BlockSize)
	for i := 0; i < b.N; i++ {
		buf[0] = byte(i)
		d.WriteBlock(addr.Phys(i%4096)<<addr.BlockShift, buf)
	}
}

// BenchmarkReadBlock measures the device read path (timing model plus
// data copy) over a warm working set.
func BenchmarkReadBlock(b *testing.B) {
	d := New(DefaultConfig())
	buf := blockOf(1)
	for i := 0; i < 4096; i++ {
		d.WriteBlock(addr.Phys(i)<<addr.BlockShift, buf)
	}
	b.SetBytes(addr.BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ReadBlock(addr.Phys(i%4096)<<addr.BlockShift, buf)
	}
}

func TestBankConflicts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	cfg.Banks = 4
	cfg.BankWindow = 2
	cfg.BankPenalty = 60
	d := New(cfg)
	buf := make([]byte, addr.BlockSize)

	// First access to a bank: no conflict.
	if lat := d.ReadBlock(0, buf); lat != cfg.ReadLatency {
		t.Fatalf("cold read = %d", lat)
	}
	// Immediate re-access to the same bank: conflict.
	if lat := d.ReadBlock(0, buf); lat != cfg.ReadLatency+60 {
		t.Fatalf("hot-bank read = %d, want penalty", lat)
	}
	if d.BankConflicts() != 1 {
		t.Fatalf("conflicts = %d", d.BankConflicts())
	}
	// Striding across banks avoids conflicts entirely.
	d2 := New(cfg)
	for i := 0; i < 16; i++ {
		d2.ReadBlock(addr.Phys(i%4)<<addr.BlockShift+addr.Phys(i/4)*1024, buf)
	}
	if d2.BankConflicts() != 0 {
		t.Fatalf("interleaved conflicts = %d", d2.BankConflicts())
	}
}

func TestBankMapping(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 2
	cfg.Banks = 4
	d := New(cfg)
	// Adjacent blocks: different channels, so different global banks.
	if d.Bank(0) == d.Bank(64) {
		t.Fatal("adjacent blocks share a bank")
	}
	// Same channel, next bank: block + Channels*BlockSize.
	if d.Bank(0) == d.Bank(128) {
		t.Fatal("channel-stride blocks share a bank")
	}
	// Full rotation: Channels*Banks blocks later, same bank again.
	if d.Bank(0) != d.Bank(addr.Phys(2*4*64)) {
		t.Fatal("bank mapping period wrong")
	}
	cfg.Banks = 0
	if New(cfg).Bank(0) != -1 {
		t.Fatal("disabled banks must return -1")
	}
}

func TestEnergyModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReadEnergyPerBitPJ = 2
	cfg.WriteEnergyPerBitPJ = 16
	d := New(cfg)
	buf := blockOf(0xFF)
	d.WriteBlock(0, buf) // 512 bits flipped (from zeros)
	if got, want := d.EnergyPJ(), 512.0*16; got != want {
		t.Fatalf("write energy = %v, want %v", got, want)
	}
	d.ReadBlock(0, buf)
	if got, want := d.EnergyPJ(), 512.0*16+512*2; got != want {
		t.Fatalf("after read = %v, want %v", got, want)
	}
	// Rewriting identical data under DCW flips nothing: no write energy.
	cfg.WriteMode = DCW
	d2 := New(cfg)
	d2.WriteBlock(0, buf)
	e := d2.EnergyPJ()
	d2.WriteBlock(0, buf)
	if d2.EnergyPJ() != e {
		t.Fatal("skipped DCW write must cost no programming energy")
	}
}
