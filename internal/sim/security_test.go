package sim

// Security property tests: the paper's core guarantee is that shredded
// (released) memory never again yields its previous contents to software.
// These tests plant a secret, release the pages, force physical reuse by
// another process, and assert the secret is unobservable — with the dirty
// secret still cache-resident and after it has been evicted to NVM, for
// both the Silent Shredder and conventionally-zeroing machines.

import (
	"bytes"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
)

var secretBlock = bytes.Repeat([]byte{0xA5, 0x5A, 0xC3, 0x3C}, addr.PageSize/4)

func securityPersonalities() []struct {
	name string
	mode memctrl.Mode
	zm   kernel.ZeroMode
} {
	return []struct {
		name string
		mode memctrl.Mode
		zm   kernel.ZeroMode
	}{
		{"silent-shredder", memctrl.SilentShredder, kernel.ZeroShred},
		{"baseline-nt", memctrl.Baseline, kernel.ZeroNonTemporal},
		{"baseline-temporal", memctrl.Baseline, kernel.ZeroTemporal},
	}
}

func TestPostShredReadsNeverLeakSecrets(t *testing.T) {
	const npages = 16
	for _, p := range securityPersonalities() {
		for _, evict := range []bool{false, true} {
			variant := "cached"
			if evict {
				variant = "evicted"
			}
			t.Run(p.name+"/"+variant, func(t *testing.T) {
				m := MustNew(testConfig(p.mode, p.zm))

				// Victim process fills pages with a recognizable secret.
				rtA := m.Runtime(0)
				procA := rtA.Process()
				va := rtA.Malloc(npages * addr.PageSize)
				for i := 0; i < npages; i++ {
					rtA.StoreBytes(va+addr.Virt(i*addr.PageSize), secretBlock)
				}
				if evict {
					// Push the secret all the way to NVM.
					m.Hier.FlushAll()
					m.MC.Flush()
				}

				victim := make(map[addr.PageNum]bool, npages)
				for i := 0; i < npages; i++ {
					pte, _ := procA.AS.Lookup((va + addr.Virt(i*addr.PageSize)).Page())
					victim[pte.PPN] = true
				}
				m.Kernel.ExitProcess(procA)

				// Attacker process allocates; the LIFO free list hands it
				// the victim's physical frames.
				rtB := m.Runtime(1)
				vb := rtB.Malloc(npages * addr.PageSize)
				for i := 0; i < npages; i++ {
					// One store per page: forces the write fault that
					// reuses (and must shred/zero) a freed frame.
					rtB.Store(vb+addr.Virt(i*addr.PageSize), 0)
				}
				for i := 0; i < npages; i++ {
					pte, _ := rtB.Process().AS.Lookup((vb + addr.Virt(i*addr.PageSize)).Page())
					if !victim[pte.PPN] {
						t.Fatalf("page %d: frame %d is not one the victim freed", i, pte.PPN)
					}
				}

				// Every byte the attacker can read must be zero — never
				// the victim's plaintext, cached or evicted.
				for i := 0; i < npages; i++ {
					got := rtB.LoadBytes(vb+addr.Virt(i*addr.PageSize), addr.PageSize)
					if !bytes.Equal(got, make([]byte, addr.PageSize)) {
						t.Fatalf("page %d: reused frame leaked data: % x ...", i, got[:16])
					}
					if bytes.Contains(got, secretBlock[:8]) {
						t.Fatalf("page %d: secret pattern visible after release", i)
					}
				}

				// The machine must still satisfy every architectural
				// invariant after the reuse cycle.
				if err := m.RunInvariantSweep(); err != nil {
					t.Fatalf("invariant sweep: %v", err)
				}

				if p.mode == memctrl.SilentShredder && m.MC.ShredCommands() == 0 {
					t.Fatal("Silent Shredder reuse path issued no shred commands")
				}
			})
		}
	}
}

// TestShredReadsZeroFilled pins the mechanism itself: after a shred, a
// read that misses the whole hierarchy is satisfied by zero fill (no NVM
// data access), and the returned bytes are zeros — §4.2's reserved
// encoding at work.
func TestShredReadsZeroFilled(t *testing.T) {
	m := MustNew(testConfig(memctrl.SilentShredder, kernel.ZeroShred))
	rt := m.Runtime(0)
	va := rt.Malloc(2 * addr.PageSize)
	rt.StoreBytes(va, secretBlock)
	pte, _ := rt.Process().AS.Lookup(va.Page())

	// Evict the dirty secret, then shred the page at the controller.
	m.Hier.FlushAll()
	m.MC.Flush()
	m.MC.Shred(pte.PPN)
	m.Hier.ShredInvalidate(pte.PPN)

	zfBefore := m.MC.ZeroFillReads()
	got := rt.LoadBytes(va, addr.PageSize)
	if !bytes.Equal(got, make([]byte, addr.PageSize)) {
		t.Fatalf("shredded page read back % x ...", got[:16])
	}
	if m.MC.ZeroFillReads() == zfBefore {
		t.Fatal("shredded-line reads must be served by zero fill")
	}
	if err := m.RunInvariantSweep(); err != nil {
		t.Fatalf("invariant sweep: %v", err)
	}
}
