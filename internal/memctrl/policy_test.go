package memctrl

import (
	"bytes"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/nvm"
	"silentshredder/internal/physmem"
)

func newPolicyMC(t *testing.T, policy ShredPolicy) (*Controller, *nvm.Device) {
	t.Helper()
	dev := nvm.New(nvm.DefaultConfig())
	cfg := DefaultConfig(SilentShredder)
	cfg.Policy = policy
	mc, err := New(cfg, dev, physmem.New(true))
	if err != nil {
		t.Fatal(err)
	}
	return mc, dev
}

func TestParseShredPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ShredPolicy
		ok   bool
	}{
		{"zero-cost", PolicyZeroCost, true},
		{"", PolicyZeroCost, true},
		{"duty-to-delete", PolicyDutyToDelete, true},
		{"multi-pass", PolicyMultiPass, true},
		{"shred", 0, false},
		{"ZERO-COST", 0, false},
	} {
		got, err := ParseShredPolicy(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Errorf("ParseShredPolicy(%q) = %v, %v; want %v ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	// Round trip through String.
	for _, p := range []ShredPolicy{PolicyZeroCost, PolicyDutyToDelete, PolicyMultiPass} {
		got, err := ParseShredPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseShredPolicy(%v.String()) = %v, %v", p, got, err)
		}
	}
}

func TestScrubPageZeroCostIsNoop(t *testing.T) {
	mc, dev := newPolicyMC(t, PolicyZeroCost)
	if w := mc.ScrubPage(7); w != 0 {
		t.Fatalf("zero-cost scrub issued %d writes", w)
	}
	if dev.Writes() != 0 || mc.ScrubWrites() != 0 {
		t.Fatalf("zero-cost scrub touched the device: dev=%d stat=%d", dev.Writes(), mc.ScrubWrites())
	}
	// And the stat stays out of the registry on zero-cost machines.
	if _, ok := mc.StatsSet().Get("scrub_writes"); ok {
		t.Fatal("scrub_writes registered on a zero-cost controller")
	}
}

func TestScrubPageMultiPassPatterns(t *testing.T) {
	mc, dev := newPolicyMC(t, PolicyMultiPass)
	const page = addr.PageNum(3)
	if w := mc.ScrubPage(page); w != DefaultScrubPasses*addr.BlocksPerPage {
		t.Fatalf("multi-pass writes = %d, want %d", w, DefaultScrubPasses*addr.BlocksPerPage)
	}
	if mc.ScrubWrites() != DefaultScrubPasses*addr.BlocksPerPage {
		t.Fatalf("scrub_writes = %d", mc.ScrubWrites())
	}
	// The device must hold the final pass's fixed pattern in every block.
	final := multiPassPatterns[(DefaultScrubPasses-1)%len(multiPassPatterns)]
	want := bytes.Repeat([]byte{final}, addr.BlockSize)
	var buf [addr.BlockSize]byte
	for i := 0; i < addr.BlocksPerPage; i++ {
		if !dev.Peek(page.BlockAddr(i), buf[:]) {
			t.Fatalf("block %d not materialized", i)
		}
		if !bytes.Equal(buf[:], want) {
			t.Fatalf("block %d = %x..., want repeated %#x", i, buf[:4], final)
		}
	}
	// Registered only on overwrite-policy machines.
	if _, ok := mc.StatsSet().Get("scrub_writes"); !ok {
		t.Fatal("scrub_writes not registered on a multi-pass controller")
	}
}

func TestScrubPageDutyToDelete(t *testing.T) {
	mc, dev := newPolicyMC(t, PolicyDutyToDelete)
	const page = addr.PageNum(5)
	if w := mc.ScrubPage(page); w != addr.BlocksPerPage {
		t.Fatalf("duty-to-delete writes = %d, want %d", w, addr.BlocksPerPage)
	}
	var first, again [addr.BlockSize]byte
	dev.Peek(page.BlockAddr(0), first[:])
	if first == ([addr.BlockSize]byte{}) {
		t.Fatal("duty-to-delete wrote zeros, want pseudorandom bytes")
	}
	// A second scrub of the same frame must write different garbage
	// (epoch-seeded), and an identical controller must reproduce the
	// exact same byte sequence (determinism).
	mc.ScrubPage(page)
	dev.Peek(page.BlockAddr(0), again[:])
	if first == again {
		t.Fatal("repeated scrubs wrote identical bytes; want epoch-varied garbage")
	}
	mc2, dev2 := newPolicyMC(t, PolicyDutyToDelete)
	mc2.ScrubPage(page)
	var replay [addr.BlockSize]byte
	dev2.Peek(page.BlockAddr(0), replay[:])
	if first != replay {
		t.Fatal("duty-to-delete scrub bytes differ across identical controllers")
	}
}

// TestScrubThenShredReadsZero proves the policies compose with the
// shredder: after scrub + shred the page still reads as zeros, and
// recovery after a crash sees zeros too — the overwrite changes what an
// attacker can recover, never the architectural contents.
func TestScrubThenShredReadsZero(t *testing.T) {
	for _, policy := range []ShredPolicy{PolicyDutyToDelete, PolicyMultiPass} {
		mc, _ := newPolicyMC(t, policy)
		mc.cfg.CounterCache.WriteThrough = true
		const page = addr.PageNum(2)
		data := bytes.Repeat([]byte{0xab}, addr.BlockSize)
		for i := 0; i < addr.BlocksPerPage; i++ {
			store(mc, mc.Image(), page.BlockAddr(i), data)
		}
		mc.ScrubPage(page)
		mc.Shred(page)
		var got [addr.BlockSize]byte
		for i := 0; i < addr.BlocksPerPage; i++ {
			mc.ReadBlock(page.BlockAddr(i), got[:])
			if got != ([addr.BlockSize]byte{}) {
				t.Fatalf("%v: post-shred read of block %d nonzero", policy, i)
			}
		}
	}
}
