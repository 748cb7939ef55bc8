package fault

import (
	"bytes"
	"testing"

	"silentshredder/internal/addr"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []Config{
		{Seed: 42, StuckPerWrite: 1e-3, ReadFlip: 1e-6, DropWrite: 1e-4, TornWrite: 1e-5, Endurance: 1000},
		{Seed: -7, ReadFlip: 0.5},
		{Seed: 0, StuckPerWrite: 1, Endurance: 64},
		{},
	}
	for _, c := range cases {
		got, err := Parse(c.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.String(), err)
		}
		if got != c {
			t.Errorf("round trip %q: got %+v want %+v", c.String(), got, c)
		}
	}
	if c, err := Parse("off"); err != nil || c.Enabled() {
		t.Errorf(`Parse("off") = %+v, %v; want disabled, nil`, c, err)
	}
	if c, err := Parse(""); err != nil || c.Enabled() {
		t.Errorf(`Parse("") = %+v, %v; want disabled, nil`, c, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"stuck=1e-3",          // no seed
		"x:stuck=1e-3",        // bad seed
		"42:stuck",            // no value
		"42:bogus=0.1",        // unknown key
		"42:flip=2",           // out of [0,1]
		"42:flip=-0.1",        // negative
		"42:endur=1.5",        // non-integer endurance
		"42:stuck=notanumber", // unparsable
		"42:flip=NaN",         // NaN slips past ordered range checks
		"42:flip=nan",
		"42:flip=+Inf",             // infinity is not a probability
		"42:",                      // seed with no rates: silently-disabled trap
		"42:,",                     // ditto, only empty items
		"42:stuck=1e-3,stuck=1e-2", // duplicate key would silently override
		"42:endur=100,endur=200",   // duplicates rejected for endur too
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): expected error, got nil", spec)
		}
	}

	// Explicit zero rates are allowed (they are not the silent-disable
	// trap: the user wrote them out), and stray commas stay harmless.
	c, err := Parse("42:stuck=0,flip=1e-6,")
	if err != nil {
		t.Fatalf("explicit zero rate rejected: %v", err)
	}
	if c.StuckPerWrite != 0 || c.ReadFlip != 1e-6 || c.Seed != 42 {
		t.Errorf("parsed %+v", c)
	}
}

// driveAll runs a fixed schedule of writes and reads against an injector
// and returns a transcript capturing every observable outcome.
func driveAll(in *Injector) []byte {
	var log bytes.Buffer
	old := make([]byte, addr.BlockSize)
	src := make([]byte, addr.BlockSize)
	buf := make([]byte, addr.BlockSize)
	for i := 0; i < 2000; i++ {
		a := addr.Phys(uint64(i%64) * addr.BlockSize)
		for j := range src {
			src[j] = byte(i + j)
			old[j] = byte(i + j + 1)
		}
		ok := in.FilterWrite(a, uint64(i), old, src)
		log.WriteByte(map[bool]byte{true: 1, false: 0}[ok])
		log.Write(src)
		copy(buf, src)
		oc := in.CorruptRead(a, buf)
		log.WriteByte(byte(oc.BitErrors))
		log.WriteByte(map[bool]byte{true: 1, false: 0}[oc.Torn])
		log.Write(buf)
	}
	return log.Bytes()
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, StuckPerWrite: 0.05, ReadFlip: 0.05, DropWrite: 0.05, TornWrite: 0.05, Endurance: 100}
	a := driveAll(New(cfg))
	b := driveAll(New(cfg))
	if !bytes.Equal(a, b) {
		t.Fatal("same seed, same schedule: transcripts differ")
	}
	cfg2 := cfg
	cfg2.Seed = 43
	if bytes.Equal(a, driveAll(New(cfg2))) {
		t.Fatal("different seeds produced identical fault streams")
	}
}

func TestWriteProtect(t *testing.T) {
	cfg := Config{Seed: 1, DropWrite: 1, TornWrite: 1}
	in := New(cfg)
	const base = addr.Phys(1 << 20)
	in.SetWriteProtect(base)

	old := make([]byte, addr.BlockSize)
	src := make([]byte, addr.BlockSize)
	for i := range src {
		src[i] = 0xAA
	}
	want := append([]byte(nil), src...)

	// Above the protect base: never dropped, never torn.
	for i := 0; i < 50; i++ {
		a := base + addr.Phys(i)*addr.BlockSize
		s := append([]byte(nil), src...)
		if !in.FilterWrite(a, 0, old, s) {
			t.Fatalf("write %d in protected region dropped", i)
		}
		if !bytes.Equal(s, want) {
			t.Fatalf("write %d in protected region torn", i)
		}
		if in.torn[a.Block()] {
			t.Fatalf("block %v marked torn in protected region", a)
		}
	}
	if in.DroppedWrites() != 0 || in.TornWrites() != 0 {
		t.Fatalf("protected writes counted: drops=%d torn=%d", in.DroppedWrites(), in.TornWrites())
	}

	// Below the base: DropWrite=1 means every write is dropped.
	if in.FilterWrite(0, 0, old, append([]byte(nil), src...)) {
		t.Fatal("unprotected write with DropWrite=1 not dropped")
	}
	if in.DroppedWrites() != 1 {
		t.Fatalf("DroppedWrites = %d, want 1", in.DroppedWrites())
	}
}

func TestTornWriteMixesOldAndNew(t *testing.T) {
	in := New(Config{Seed: 9, TornWrite: 1})
	old := make([]byte, addr.BlockSize)
	src := make([]byte, addr.BlockSize)
	for i := range src {
		old[i] = 0x11
		src[i] = 0x22
	}
	if !in.FilterWrite(0, 0, old, src) {
		t.Fatal("torn write must still commit")
	}
	if !in.torn[0] {
		t.Fatal("block not marked torn")
	}
	// The committed block is a prefix of new bytes followed by old bytes,
	// cut at an 8-byte boundary strictly inside the block.
	cut := -1
	for i := 0; i < addr.BlockSize; i++ {
		if src[i] == 0x11 {
			cut = i
			break
		}
	}
	if cut <= 0 || cut%8 != 0 {
		t.Fatalf("tear cut at %d, want positive multiple of 8", cut)
	}
	for i := cut; i < addr.BlockSize; i++ {
		if src[i] != 0x11 {
			t.Fatalf("byte %d past the cut is new data", i)
		}
	}
	if in.TornWrites() != 1 {
		t.Fatalf("TornWrites = %d, want 1", in.TornWrites())
	}
	// A read of the torn block reports Torn.
	buf := append([]byte(nil), src...)
	if oc := in.CorruptRead(0, buf); !oc.Torn {
		t.Fatal("CorruptRead of torn block did not report Torn")
	}
	// A later clean write clears the torn marking.
	inClean := New(Config{Seed: 9, TornWrite: 0})
	inClean.torn[0] = true
	if !inClean.FilterWrite(0, 0, old, append([]byte(nil), src...)) {
		t.Fatal("clean write dropped")
	}
	if inClean.torn[0] {
		t.Fatal("clean write did not clear torn marking")
	}
}

func TestStuckCellsDevelopWithWear(t *testing.T) {
	in := New(Config{Seed: 3, StuckPerWrite: 1}) // Endurance 0: wear-independent
	old := make([]byte, addr.BlockSize)
	src := make([]byte, addr.BlockSize)
	in.FilterWrite(0, 0, old, src)
	if in.StuckCells() != 1 {
		t.Fatalf("StuckCells = %d, want 1 with StuckPerWrite=1", in.StuckCells())
	}
	if len(in.stuck[0]) != 1 {
		t.Fatalf("stuck cells on block 0 = %d, want 1", len(in.stuck[0]))
	}

	// With Endurance set, a fresh block (wear 0) can never stick.
	in2 := New(Config{Seed: 3, StuckPerWrite: 1, Endurance: 1000})
	for i := 0; i < 100; i++ {
		in2.FilterWrite(0, 0, old, src)
	}
	if in2.StuckCells() != 0 {
		t.Fatalf("fresh block developed %d stuck cells", in2.StuckCells())
	}
	// At wear >= Endurance the base rate applies.
	in2.FilterWrite(0, 1000, old, src)
	if in2.StuckCells() != 1 {
		t.Fatalf("worn block StuckCells = %d, want 1", in2.StuckCells())
	}

	// A stuck cell perturbs delivered reads deterministically: the same
	// read twice gives the same corruption.
	buf1 := make([]byte, addr.BlockSize)
	buf2 := make([]byte, addr.BlockSize)
	oc1 := in.CorruptRead(0, buf1)
	// Stuck overlay is a pure function of stored state; transient flip is
	// off, so two reads agree.
	oc2 := in.CorruptRead(0, buf2)
	if oc1.BitErrors != oc2.BitErrors || !bytes.Equal(buf1, buf2) {
		t.Fatal("stuck-cell corruption not stable across reads")
	}
	if oc1.BitErrors > 1 {
		t.Fatalf("BitErrors = %d, want <= 1 from one stuck cell", oc1.BitErrors)
	}
}

func TestInjectorAccessorsAndStatsSet(t *testing.T) {
	cfg := Config{Seed: 11, StuckPerWrite: 1, ReadFlip: 1}
	in := New(cfg)
	// Develop stuck cells on two blocks (Endurance 0 => immediate) and a
	// transient flip on a read.
	a0, a1 := addr.Phys(0), addr.Phys(addr.BlockSize)
	buf := make([]byte, addr.BlockSize)
	in.FilterWrite(a0, 0, buf, buf)
	in.FilterWrite(a1, 0, buf, buf)
	in.CorruptRead(a0, buf)
	if in.ReadFlips() == 0 {
		t.Fatal("read flip not counted")
	}

	if len(in.stuck) != 2 || len(in.stuck[a0]) < 1 || len(in.stuck[a1]) < 1 {
		t.Fatalf("stuck blocks = %v, want cells on %v and %v", in.stuck, a0, a1)
	}

	s := in.StatsSet("faults")
	if v, ok := s.Get("stuck_cells"); !ok || v != float64(in.StuckCells()) {
		t.Fatalf("stats stuck_cells = %v (ok=%v), accessor %d", v, ok, in.StuckCells())
	}
	if v, ok := s.Get("read_flips"); !ok || v != float64(in.ReadFlips()) {
		t.Fatalf("stats read_flips = %v (ok=%v), accessor %d", v, ok, in.ReadFlips())
	}
	for _, k := range []string{"stuck_cells", "read_flips", "dropped_writes", "torn_writes"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("stats set missing %q", k)
		}
	}
}
