package memctrl

// Counter-overflow stress: the 7-bit minor counters wrap after 127 writes
// to the same block, which must trigger a whole-page re-encryption under
// an incremented major counter — never a silent IV reuse — and the major
// counter itself must refuse to wrap (typed saturation panic) rather than
// repeat an IV after 2^64 re-encryptions.

import (
	"bytes"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/ctr"
)

// TestMinorOverflowReencrypts drives one block past the minor-counter
// ceiling and checks that the page is re-encrypted (major bumped, minors
// reset) and that every block of the page still decrypts to its
// architectural contents afterwards.
func TestMinorOverflowReencrypts(t *testing.T) {
	mc, _, img := newMC(t, SilentShredder)
	p := addr.PageNum(21)

	// Populate the whole page so the re-encryption has real data to carry.
	for i := 0; i < addr.BlocksPerPage; i++ {
		store(mc, img, p.BlockAddr(i), bytes.Repeat([]byte{byte(0x30 + i)}, addr.BlockSize))
	}
	majorBefore := mc.cc.PersistedValue(p).Major

	// Hammer block 0: it starts at MinorFirst after its first write, so
	// MinorMax more writes force the wrap.
	hot := bytes.Repeat([]byte{0x77}, addr.BlockSize)
	for w := 0; w < ctr.MinorMax+4; w++ {
		hot[0] = byte(w)
		store(mc, img, p.BlockAddr(0), hot)
	}
	if mc.Reencryptions() == 0 {
		t.Fatal("minor-counter wrap did not trigger a page re-encryption")
	}

	mc.Flush() // counters persist lazily; force the writeback before inspecting
	cb := mc.cc.PersistedValue(p)
	if cb.Major <= majorBefore {
		t.Fatalf("major counter %d not advanced past %d by re-encryption", cb.Major, majorBefore)
	}
	for i := 0; i < addr.BlocksPerPage; i++ {
		if cb.Minor[i] == ctr.MinorShredded {
			t.Fatalf("block %d shredded by re-encryption", i)
		}
	}

	// Post-wrap decryption round-trips for the hot block and a cold one.
	got := make([]byte, addr.BlockSize)
	mc.ReadBlock(p.BlockAddr(0), got)
	if !bytes.Equal(got, hot) {
		t.Fatal("hot block corrupt after minor-overflow re-encryption")
	}
	mc.ReadBlock(p.BlockAddr(7), got)
	if !bytes.Equal(got, bytes.Repeat([]byte{0x37}, addr.BlockSize)) {
		t.Fatal("cold block corrupt after minor-overflow re-encryption")
	}
}

// TestZeroPageDirectOverflowReencrypts drives the baseline's page zeroing
// across the minor-counter ceiling. One block runs ahead of its siblings,
// so the overflow lands mid-page: the crossing zeroing must re-encrypt the
// page exactly once, at that block, and finish under the new major
// counter, leaving every block reading as zeros.
func TestZeroPageDirectOverflowReencrypts(t *testing.T) {
	mc, _, img := newMC(t, Baseline)
	p := addr.PageNum(25)
	const hot = 37

	for i := 0; i < addr.BlocksPerPage; i++ {
		store(mc, img, p.BlockAddr(i), bytes.Repeat([]byte{byte(0x40 + i)}, addr.BlockSize))
	}
	for w := 0; w < 8; w++ {
		store(mc, img, p.BlockAddr(hot), bytes.Repeat([]byte{byte(w)}, addr.BlockSize))
	}
	before := mc.Reencryptions()
	majorBefore := mc.CounterCache().Peek(p).Major

	for n := 0; mc.Reencryptions() == before; n++ {
		if n > ctr.MinorMax {
			t.Fatalf("no re-encryption after %d zeroings", n)
		}
		mc.ZeroPageDirect(p)
	}
	if got := mc.Reencryptions() - before; got != 1 {
		t.Fatalf("crossing zeroing re-encrypted the page %d times, want 1", got)
	}
	cb := mc.CounterCache().Peek(p)
	if cb.Major <= majorBefore {
		t.Fatalf("major counter %d not advanced past %d by re-encryption", cb.Major, majorBefore)
	}
	// Blocks before the hot one were zeroed under the old major and only
	// carried over by the re-encryption; the hot block and those after it
	// were zeroed again under the new major.
	for i := 0; i < addr.BlocksPerPage; i++ {
		want := uint8(ctr.MinorFirst)
		if i >= hot {
			want++
		}
		if cb.Minor[i] != want {
			t.Fatalf("block %d minor = %d, want %d", i, cb.Minor[i], want)
		}
	}

	zero := make([]byte, addr.BlockSize)
	for i := 0; i < addr.BlocksPerPage; i++ {
		got := bytes.Repeat([]byte{0xFF}, addr.BlockSize)
		mc.ReadBlock(p.BlockAddr(i), got)
		if !bytes.Equal(got, zero) {
			t.Fatalf("block %d reads %x after the crossing zeroing, want zeros", i, got)
		}
	}
}

// TestMajorSaturationRejected pins the major counter at its ceiling and
// checks that the next advance panics with the typed *ctr.SaturationError
// instead of silently wrapping to an already-used IV space.
func TestMajorSaturationRejected(t *testing.T) {
	var cb ctr.CounterBlock
	cb.Major = ^uint64(0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("BumpMajor at ceiling did not panic")
		}
		se, ok := r.(*ctr.SaturationError)
		if !ok {
			t.Fatalf("panic value %T, want *ctr.SaturationError", r)
		}
		if se.Major != ^uint64(0) {
			t.Fatalf("SaturationError.Major = %d", se.Major)
		}
		if se.Error() == "" {
			t.Fatal("empty SaturationError message")
		}
	}()
	cb.BumpMajor()
}

// TestMajorMonotonicUnderShredsAndWraps checks the IV-freshness invariant
// the two overflow paths share: shreds and re-encryptions only ever move
// the major counter forward.
func TestMajorMonotonicUnderShredsAndWraps(t *testing.T) {
	mc, _, img := newMC(t, SilentShredder)
	p := addr.PageNum(33)
	last := mc.cc.PersistedValue(p).Major
	data := bytes.Repeat([]byte{0x5A}, addr.BlockSize)
	for round := 0; round < 4; round++ {
		for w := 0; w < ctr.MinorMax+2; w++ {
			data[1] = byte(w)
			store(mc, img, p.BlockAddr(1), data)
		}
		mc.Flush()
		if got := mc.cc.PersistedValue(p).Major; got <= last {
			t.Fatalf("round %d: major %d not monotonic (last %d)", round, got, last)
		} else {
			last = got
		}
		mc.Shred(p)
		mc.Flush()
		if got := mc.cc.PersistedValue(p).Major; got <= last {
			t.Fatalf("round %d: shred major %d not monotonic (last %d)", round, got, last)
		} else {
			last = got
		}
	}
}
