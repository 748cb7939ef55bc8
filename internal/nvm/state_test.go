package nvm

// Persistent-state plumbing tests: snapshot/restore, the write hook the
// crash scheduler hangs off, and the checked read path that delivers
// fault syndromes to the ECC layer.

import (
	"bytes"
	"math"
	"testing"

	"silentshredder/internal/addr"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	d := New(DefaultConfig())
	a := addr.PageNum(3).BlockAddr(1)
	data := bytes.Repeat([]byte{0x5A, 0x21}, addr.BlockSize/2)
	d.WriteBlock(a, data)
	d.WriteBlock(a, bytes.Repeat([]byte{0xFF}, addr.BlockSize)) // build wear
	st := d.Snapshot()

	// Snapshot shares no memory: mutate the device, the snapshot holds.
	d.WriteBlock(a, make([]byte, addr.BlockSize))

	d2 := New(DefaultConfig())
	d2.Restore(st)
	got := make([]byte, addr.BlockSize)
	if !d2.Peek(a, got) || !bytes.Equal(got, bytes.Repeat([]byte{0xFF}, addr.BlockSize)) {
		t.Fatal("restored contents wrong")
	}
	if d2.wearOf(a) != d.wearOf(a)-1 {
		t.Fatalf("restored wear = %d, device wear = %d", d2.wearOf(a), d.wearOf(a))
	}
	if d2.MaxWear() != d2.wearOf(a) {
		t.Fatalf("MaxWear not rebuilt: %d vs %d", d2.MaxWear(), d2.wearOf(a))
	}

	pages := 0
	d2.ForEachPage(func(p addr.PageNum, pg *[addr.PageSize]byte) {
		pages++
		if p != a.Page() {
			t.Fatalf("unexpected page %v", p)
		}
	})
	if pages != 1 {
		t.Fatalf("ForEachPage visited %d pages", pages)
	}
}

// Wear counters are 32 bits and saturate: a block written at the cap
// stays there, a Snapshot/Restore round trip keeps every count, and a
// restored count above the cap comes back as the cap.
func TestWearSaturatesAndRoundTrips(t *testing.T) {
	d := New(DefaultConfig())
	a, b := addr.PageNum(2).BlockAddr(5), addr.PageNum(2).BlockAddr(6)
	for i := 0; i < 3; i++ {
		d.WriteBlock(b, bytes.Repeat([]byte{byte(i)}, addr.BlockSize))
	}
	d.WriteBlock(a, make([]byte, addr.BlockSize))
	d.countsOf(a.Page())[a.BlockIndex()] = math.MaxUint32 - 1
	for i := 0; i < 3; i++ {
		d.WriteBlock(a, bytes.Repeat([]byte{byte(i + 1)}, addr.BlockSize))
	}
	if d.wearOf(a) != math.MaxUint32 || d.MaxWear() != math.MaxUint32 || d.wearOf(b) != 3 {
		t.Fatalf("wear %d and %d, max %d; want %d, 3 and %d",
			d.wearOf(a), d.wearOf(b), d.MaxWear(), uint64(math.MaxUint32), uint64(math.MaxUint32))
	}

	st := d.Snapshot()
	if len(st.Wear) != 2 || st.Wear[a] != math.MaxUint32 || st.Wear[b] != 3 {
		t.Fatalf("snapshot wear = %v", st.Wear)
	}
	d2 := New(DefaultConfig())
	d2.Restore(st)
	if d2.wearOf(a) != math.MaxUint32 || d2.wearOf(b) != 3 || d2.MaxWear() != math.MaxUint32 {
		t.Fatalf("restored wear %d and %d, max %d", d2.wearOf(a), d2.wearOf(b), d2.MaxWear())
	}
	if st2 := d2.Snapshot(); len(st2.Wear) != 2 || st2.Wear[a] != st.Wear[a] || st2.Wear[b] != st.Wear[b] {
		t.Fatalf("second snapshot wear = %v, want %v", st2.Wear, st.Wear)
	}

	st.Wear = map[addr.Phys]uint64{b: math.MaxUint32 + 7}
	d2.Restore(st)
	if d2.wearOf(b) != math.MaxUint32 || d2.MaxWear() != math.MaxUint32 || d2.wearOf(a) != 0 {
		t.Fatalf("over-cap restore: wear %d and %d, max %d", d2.wearOf(b), d2.wearOf(a), d2.MaxWear())
	}
}

func TestWriteHookFiresBeforeCommit(t *testing.T) {
	d := New(DefaultConfig())
	a := addr.PageNum(1).BlockAddr(0)
	data := bytes.Repeat([]byte{0x77}, addr.BlockSize)

	var seen []addr.Phys
	d.SetWriteHook(func(h addr.Phys) { seen = append(seen, h) })
	d.WriteBlock(a, data)
	if len(seen) != 1 || seen[0] != a {
		t.Fatalf("hook saw %v", seen)
	}

	// A panicking hook (the crash scheduler's cut) must fire before any
	// state is committed: the in-flight write never reaches the cells.
	d.SetWriteHook(func(addr.Phys) { panic("cut") })
	func() {
		defer func() { recover() }()
		d.WriteBlock(a, make([]byte, addr.BlockSize))
	}()
	d.SetWriteHook(nil)
	got := make([]byte, addr.BlockSize)
	d.Peek(a, got)
	if !bytes.Equal(got, data) {
		t.Fatal("write cut by the hook still reached the device")
	}
}

// checkedInjector flips the first delivered bit of every read.
type checkedInjector struct{ calls int }

func (c *checkedInjector) FilterWrite(addr.Phys, uint64, []byte, []byte) bool { return true }
func (c *checkedInjector) CorruptRead(a addr.Phys, dst []byte) ReadOutcome {
	c.calls++
	dst[0] ^= 1
	return ReadOutcome{BitErrors: 1}
}

func TestReadBlockCheckedDeliversSyndrome(t *testing.T) {
	d := New(DefaultConfig())
	a := addr.PageNum(2).BlockAddr(4)
	data := bytes.Repeat([]byte{0x10}, addr.BlockSize)
	d.WriteBlock(a, data)

	// No injector: exactly ReadBlock with a clean outcome.
	got := make([]byte, addr.BlockSize)
	if _, oc := d.ReadBlockChecked(a, got); oc.BitErrors != 0 || oc.Torn {
		t.Fatalf("clean device reported %+v", oc)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("clean checked read corrupted data")
	}

	inj := &checkedInjector{}
	d.SetInjector(inj)
	if d.inj == nil {
		t.Fatal("Injector accessor lost the injector")
	}
	_, oc := d.ReadBlockChecked(a, got)
	if oc.BitErrors != 1 || inj.calls != 1 {
		t.Fatalf("outcome %+v, calls %d", oc, inj.calls)
	}
	if got[0] != data[0]^1 {
		t.Fatal("delivered bits don't match the reported syndrome")
	}
	// The corruption is delivery-only: the stored codeword is intact.
	d.SetInjector(nil)
	d.Peek(a, got)
	if !bytes.Equal(got, data) {
		t.Fatal("injector corrupted the stored cells")
	}
}
