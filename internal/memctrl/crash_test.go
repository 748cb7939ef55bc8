package memctrl

// In-package crash/recovery tests: Crash() drops the volatile state and
// RecoverImage() rebuilds the architectural memory image from persistent
// ciphertext + persisted counters — the controller half of the
// crash-anywhere harness, pinned here without the simulator on top.

import (
	"bytes"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/nvm"
	"silentshredder/internal/physmem"
)

func TestCrashRecoverImageRebuildsFromCiphertext(t *testing.T) {
	mc, _, img := newMC(t, SilentShredder)
	pKeep, pShred, pGhost := addr.PageNum(2), addr.PageNum(3), addr.PageNum(4)
	keep := bytes.Repeat([]byte{0x7E, 0x11}, addr.BlockSize/2)

	store(mc, img, pKeep.BlockAddr(1), keep)
	store(mc, img, pShred.BlockAddr(0), bytes.Repeat([]byte{0x9A}, addr.BlockSize))
	mc.Shred(pShred)
	// pGhost: shred-only page — persisted counters exist, but no device
	// page was ever materialized (its cells are unprogrammed).
	mc.Shred(pGhost)
	mc.Flush()

	// Power cut. Scribble over the functional image to prove recovery
	// really rebuilds it rather than trusting leftover DRAM contents.
	mc.Crash()
	garbage := bytes.Repeat([]byte{0xDD}, addr.BlockSize)
	img.Write(pKeep.BlockAddr(1), garbage)
	img.Write(pShred.BlockAddr(0), garbage)
	img.Write(pGhost.BlockAddr(7), garbage)

	mc.RecoverImage()
	if mc.crashRecoveries.Value() != 1 {
		t.Fatalf("CrashRecoveries = %d, want 1", mc.crashRecoveries.Value())
	}

	got := make([]byte, addr.BlockSize)
	mc.ReadBlock(pKeep.BlockAddr(1), got)
	if !bytes.Equal(got, keep) {
		t.Fatal("persisted data not recovered")
	}
	zero := make([]byte, addr.BlockSize)
	mc.ReadBlock(pShred.BlockAddr(0), got)
	if !bytes.Equal(got, zero) {
		t.Fatal("shredded page must recover to zeros")
	}
	mc.ReadBlock(pGhost.BlockAddr(7), got)
	if !bytes.Equal(got, zero) {
		t.Fatal("shred-only page (no device cells) must recover to zeros")
	}
}

func TestCrashRecoverImageFoldsRetiredLines(t *testing.T) {
	mc, inj, img, _ := newECCMC(t)
	a := addr.PageNum(5).BlockAddr(2)
	data := bytes.Repeat([]byte{0x3C, 0x55, 0x81, 0x04}, addr.BlockSize/4)
	store(mc, img, a, data)

	// Proactively retire the line (contents preserved on the spare).
	for i := 0; i < DefaultRetireAfterCorrections; i++ {
		inj.queueFlips(a, 1)
		mc.ReadBlock(a, make([]byte, addr.BlockSize))
	}
	if mc.ecc.remap.Resolve(a) == a {
		t.Fatal("line not retired")
	}
	mc.Flush()
	mc.Crash()
	img.Write(a, bytes.Repeat([]byte{0xEE}, addr.BlockSize))
	mc.RecoverImage()

	got := make([]byte, addr.BlockSize)
	mc.ReadBlock(a, got)
	if !bytes.Equal(got, data) {
		t.Fatal("retired line's contents lost across the crash")
	}
}

func TestShredOptionStrings(t *testing.T) {
	cases := map[ShredOption]string{
		OptionReserveZero: "reserve-zero",
		OptionIncMinors:   "inc-minors",
		OptionIncMajor:    "inc-major",
	}
	for opt, want := range cases {
		if opt.String() != want {
			t.Fatalf("%d.String() = %q, want %q", opt, opt.String(), want)
		}
	}
}

func TestControllerAccessors(t *testing.T) {
	mc, dev, img := newMC(t, SilentShredder)
	if mc.Mode() != SilentShredder || mc.cfg.Shred != OptionReserveZero {
		t.Fatal("mode/shred accessors wrong")
	}
	if mc.Device() != dev || mc.Image() != img {
		t.Fatal("device/image accessors wrong")
	}
	if mc.IntegrityEnabled() {
		t.Fatal("integrity reported on without a tree")
	}
	if err := mc.CheckIntegrity(); err != nil {
		t.Fatalf("CheckIntegrity without a tree: %v", err)
	}
	if mc.ECCEnabled() {
		t.Fatal("ECC reported on for a perfect-device controller")
	}

	ecc, _, _, _ := newECCMC(t)
	if !ecc.ECCEnabled() {
		t.Fatal("ECC controller reports ECC off")
	}
}

func TestCheckIntegrityWithTree(t *testing.T) {
	cfg := DefaultConfig(SilentShredder)
	cfg.Integrity = true
	mc, err := New(cfg, nvm.New(nvm.DefaultConfig()), physmem.New(true))
	if err != nil {
		t.Fatal(err)
	}
	if !mc.IntegrityEnabled() {
		t.Fatal("integrity tree not built")
	}
	mc.WriteBlock(addr.PageNum(9).BlockAddr(0))
	if err := mc.CheckIntegrity(); err != nil {
		t.Fatalf("consistent machine failed the sweep: %v", err)
	}
}
