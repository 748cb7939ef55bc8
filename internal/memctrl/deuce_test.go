package memctrl

import (
	"bytes"
	"testing"
	"testing/quick"

	"silentshredder/internal/addr"
	"silentshredder/internal/nvm"
	"silentshredder/internal/physmem"
)

func newDeuceMC(t *testing.T, mode Mode, epoch int, writeMode nvm.WriteMode) (*Controller, *nvm.Device, *physmem.Image) {
	t.Helper()
	devCfg := nvm.DefaultConfig()
	devCfg.WriteMode = writeMode
	dev := nvm.New(devCfg)
	img := physmem.New(true)
	cfg := DefaultConfig(mode)
	cfg.DEUCE = true
	cfg.VerifyPlaintext = true
	mc, err := New(cfg, dev, img)
	if err != nil {
		t.Fatal(err)
	}
	mc.deuce.epoch = epoch
	return mc, dev, img
}

func TestDeuceRoundTrip(t *testing.T) {
	mc, dev, img := newDeuceMC(t, SilentShredder, 8, nvm.WriteAll)
	a := addr.PageNum(3).BlockAddr(5)
	data := bytes.Repeat([]byte{0x7E}, addr.BlockSize)
	store(mc, img, a, data)
	got := make([]byte, addr.BlockSize)
	mc.ReadBlock(a, got)
	if !bytes.Equal(got, data) {
		t.Fatal("DEUCE round trip failed")
	}
	raw := make([]byte, addr.BlockSize)
	dev.Peek(a, raw)
	if bytes.Equal(raw, data) {
		t.Fatal("DEUCE left plaintext on the device")
	}
}

// The core DEUCE effect: updating one word repeatedly leaves the other
// chunks' ciphertext untouched between epoch boundaries.
func TestDeuceUnmodifiedChunksKeepCiphertext(t *testing.T) {
	mc, dev, img := newDeuceMC(t, SilentShredder, 32, nvm.WriteAll)
	a := addr.PageNum(1).BlockAddr(0)
	base := bytes.Repeat([]byte{0xAA}, addr.BlockSize)
	store(mc, img, a, base) // first write: epoch start, full encryption

	before := make([]byte, addr.BlockSize)
	dev.Peek(a, before)

	// Update only the first 8 bytes (chunk 0), several times.
	for i := 0; i < 5; i++ {
		upd := append([]byte(nil), base...)
		upd[0] = byte(i + 1)
		store(mc, img, a, upd)
	}
	after := make([]byte, addr.BlockSize)
	dev.Peek(a, after)

	if bytes.Equal(before[:16], after[:16]) {
		t.Fatal("modified chunk ciphertext must change")
	}
	if !bytes.Equal(before[16:], after[16:]) {
		t.Fatal("unmodified chunks' ciphertext must be identical (DEUCE)")
	}
	// Round trip still correct.
	got := make([]byte, addr.BlockSize)
	mc.ReadBlock(a, got)
	if got[0] != 5 || got[63] != 0xAA {
		t.Fatalf("contents wrong after partial re-encryptions: %v", got[:2])
	}
}

func TestDeuceEpochBoundaryReencryptsAll(t *testing.T) {
	const epoch = 4
	mc, dev, img := newDeuceMC(t, SilentShredder, epoch, nvm.WriteAll)
	a := addr.PageNum(2).BlockAddr(0)
	data := bytes.Repeat([]byte{0x55}, addr.BlockSize)
	store(mc, img, a, data) // minor 1: epoch start

	snap := make([]byte, addr.BlockSize)
	dev.Peek(a, snap)

	// Writes 2..4 modify chunk 0 only; write 5 (minor 5 = 1+4) starts a
	// new epoch and must re-encrypt every chunk.
	for i := 0; i < 3; i++ {
		data[0] = byte(i)
		store(mc, img, a, data)
	}
	mid := make([]byte, addr.BlockSize)
	dev.Peek(a, mid)
	if !bytes.Equal(snap[16:], mid[16:]) {
		t.Fatal("tail chunks changed before the epoch boundary")
	}
	data[0] = 99
	store(mc, img, a, data) // epoch boundary
	end := make([]byte, addr.BlockSize)
	dev.Peek(a, end)
	if bytes.Equal(mid[16:], end[16:]) {
		t.Fatal("epoch boundary must re-encrypt unmodified chunks")
	}
	got := make([]byte, addr.BlockSize)
	mc.ReadBlock(a, got)
	if got[0] != 99 || got[63] != 0x55 {
		t.Fatal("contents wrong after epoch re-encryption")
	}
}

// DEUCE + DCW: sparse updates flip far fewer cells than full
// re-encryption — the write-efficiency claim the paper builds on.
func TestDeuceReducesBitFlipsUnderDCW(t *testing.T) {
	run := func(deuce bool) float64 {
		devCfg := nvm.DefaultConfig()
		devCfg.WriteMode = nvm.DCW
		dev := nvm.New(devCfg)
		img := physmem.New(true)
		cfg := DefaultConfig(Baseline)
		cfg.DEUCE = deuce
		mc, err := New(cfg, dev, img)
		if err != nil {
			t.Fatal(err)
		}
		if deuce {
			mc.deuce.epoch = 64
		}
		a := addr.PageNum(1).BlockAddr(0)
		data := make([]byte, addr.BlockSize)
		store(mc, img, a, data)
		f0, w0 := dev.BitsFlipped(), dev.Writes()
		for i := 1; i <= 40; i++ {
			data[0] = byte(i) // single-word update
			store(mc, img, a, data)
		}
		return float64(dev.BitsFlipped()-f0) / float64(dev.Writes()-w0)
	}
	full, partial := run(false), run(true)
	if partial*2 >= full {
		t.Fatalf("DEUCE flips/write %.1f not well below full re-encryption %.1f", partial, full)
	}
	// A single modified 16B chunk re-randomizes ~64 of 512 cells.
	if partial > 100 {
		t.Fatalf("DEUCE flips/write = %.1f, expected ~64", partial)
	}
}

func TestDeuceComposesWithShred(t *testing.T) {
	mc, dev, img := newDeuceMC(t, SilentShredder, 8, nvm.WriteAll)
	p := addr.PageNum(7)
	secret := bytes.Repeat([]byte{0x66}, addr.BlockSize)
	store(mc, img, p.BlockAddr(0), secret)
	mc.Shred(p)

	// Shredded reads zero-fill as usual.
	got := bytes.Repeat([]byte{1}, addr.BlockSize)
	mc.ReadBlock(p.BlockAddr(0), got)
	if !bytes.Equal(got, make([]byte, addr.BlockSize)) {
		t.Fatal("shredded block must read zeros under DEUCE")
	}
	// And post-shred writes restart DEUCE state cleanly.
	store(mc, img, p.BlockAddr(0), secret)
	mc.ReadBlock(p.BlockAddr(0), got)
	if !bytes.Equal(got, secret) {
		t.Fatal("post-shred DEUCE write round trip failed")
	}
	_ = dev
}

// Property: arbitrary sequences of partial updates always read back the
// architecturally correct data (VerifyPlaintext panics otherwise, so the
// property is enforced on every read).
func TestDeuceFunctionalProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		mc, _, img := newDeuceMC(t, SilentShredder, 4, nvm.WriteAll)
		a := addr.PageNum(1).BlockAddr(2)
		cur := make([]byte, addr.BlockSize)
		for _, op := range ops {
			off := int(op%8) * 8
			cur[off] = byte(op >> 8)
			img.Write(a, cur)
			mc.WriteBlock(a)
			got := make([]byte, addr.BlockSize)
			mc.ReadBlock(a, got)
			if !bytes.Equal(got, cur) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Re-encryption (minor overflow) under DEUCE must stay functionally
// correct.
func TestDeuceSurvivesPageReencryption(t *testing.T) {
	mc, _, img := newDeuceMC(t, SilentShredder, 8, nvm.WriteAll)
	a := addr.PageNum(9).BlockAddr(0)
	data := make([]byte, addr.BlockSize)
	for i := 0; i < 130; i++ { // crosses the 127-write minor limit
		data[8] = byte(i)
		store(mc, img, a, data)
	}
	if mc.Reencryptions() == 0 {
		t.Fatal("expected a page re-encryption")
	}
	got := make([]byte, addr.BlockSize)
	mc.ReadBlock(a, got)
	if got[8] != 129 {
		t.Fatalf("contents wrong after re-encryption: %d", got[8])
	}
}
