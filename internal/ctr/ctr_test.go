package ctr

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"silentshredder/internal/addr"
)

func testEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineBadKey(t *testing.T) {
	if _, err := NewEngine([]byte("short")); err == nil {
		t.Fatal("want error for bad key size")
	}
}

// Property: the counter-block codec round-trips for arbitrary counters.
func TestCounterBlockCodecProperty(t *testing.T) {
	f := func(major uint64, minors [addr.BlocksPerPage]uint8) bool {
		var cb CounterBlock
		cb.Major = major
		for i, m := range minors {
			cb.Minor[i] = m & MinorMax
		}
		got := DecodeCounterBlock(cb.Encode())
		return got == cb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// encodeRef is the bit-at-a-time counter-block encoder that Encode
// replaced: the reference for the memory representation, which
// checkpoints store and the Merkle tree's leaves hash.
func encodeRef(cb *CounterBlock) [CounterBlockSize]byte {
	var out [CounterBlockSize]byte
	binary.LittleEndian.PutUint64(out[:8], cb.Major)
	bitPos := 0
	for _, m := range cb.Minor {
		byteIdx := 8 + bitPos/8
		bitOff := bitPos % 8
		v := uint16(m&MinorMax) << bitOff
		out[byteIdx] |= byte(v)
		if bitOff > 1 { // spills into the next byte
			out[byteIdx+1] |= byte(v >> 8)
		}
		bitPos += MinorBits
	}
	return out
}

// decodeRef is the bit-at-a-time decoder matching encodeRef.
func decodeRef(raw [CounterBlockSize]byte) CounterBlock {
	var cb CounterBlock
	cb.Major = binary.LittleEndian.Uint64(raw[:8])
	bitPos := 0
	for i := range cb.Minor {
		byteIdx := 8 + bitPos/8
		bitOff := bitPos % 8
		v := uint16(raw[byteIdx]) >> bitOff
		if bitOff > 1 {
			v |= uint16(raw[byteIdx+1]) << (8 - bitOff)
		}
		cb.Minor[i] = uint8(v & MinorMax)
		bitPos += MinorBits
	}
	return cb
}

// The word-at-a-time codec is byte-identical to the bit-at-a-time
// reference over a seeded corpus: minors with bit 7 set (Encode drops
// it), all-zero and all-ones blocks, and raw 64-byte images of random
// bits for the decoder.
func TestCounterBlockCodecMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	blocks := []CounterBlock{{}, {Major: ^uint64(0)}}
	var ones CounterBlock
	for i := range ones.Minor {
		ones.Minor[i] = 0xff
	}
	blocks = append(blocks, ones)
	for n := 0; n < 2000; n++ {
		var cb CounterBlock
		cb.Major = rng.Uint64()
		for i := range cb.Minor {
			cb.Minor[i] = uint8(rng.Intn(256))
		}
		blocks = append(blocks, cb)
	}
	for _, cb := range blocks {
		if got, want := cb.Encode(), encodeRef(&cb); got != want {
			t.Fatalf("Encode(%+v) = %x, want %x", cb, got, want)
		}
		var raw [CounterBlockSize]byte
		rng.Read(raw[:])
		if got, want := DecodeCounterBlock(raw), decodeRef(raw); got != want {
			t.Fatalf("DecodeCounterBlock(%x) = %+v, want %+v", raw, got, want)
		}
	}
}

func TestCounterBlockEncodedSize(t *testing.T) {
	var cb CounterBlock
	raw := cb.Encode()
	if len(raw) != 64 {
		t.Fatalf("encoded size = %d, want 64", len(raw))
	}
}

func TestShredSemantics(t *testing.T) {
	var cb CounterBlock
	cb.Major = 5
	for i := range cb.Minor {
		cb.Minor[i] = uint8(i%MinorMax) + 1
	}
	cb.Shred()
	if cb.Major != 6 {
		t.Fatalf("Major = %d, want 6", cb.Major)
	}
	for i := range cb.Minor {
		if !cb.Shredded(i) {
			t.Fatalf("block %d not shredded", i)
		}
	}
}

func TestReencryptSemantics(t *testing.T) {
	var cb CounterBlock
	cb.Minor[3] = MinorMax
	cb.Reencrypt()
	if cb.Major != 1 {
		t.Fatalf("Major = %d", cb.Major)
	}
	for i := range cb.Minor {
		if cb.Minor[i] != MinorFirst {
			t.Fatalf("Minor[%d] = %d, want %d", i, cb.Minor[i], MinorFirst)
		}
		if cb.Shredded(i) {
			t.Fatalf("re-encrypted block %d must not read as shredded", i)
		}
	}
}

func TestBumpMinor(t *testing.T) {
	var cb CounterBlock
	if cb.BumpMinor(0) {
		t.Fatal("first bump must not overflow")
	}
	if cb.Minor[0] != MinorFirst {
		t.Fatalf("Minor[0] = %d after first bump", cb.Minor[0])
	}
	cb.Minor[1] = MinorMax
	if !cb.BumpMinor(1) {
		t.Fatal("bump at MinorMax must overflow")
	}
	if cb.Minor[1] != MinorMax {
		t.Fatal("overflowing bump must not modify the counter")
	}
}

func TestMakeIVPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { MakeIV(0, -1, 0, 0, 0) },
		func() { MakeIV(0, addr.BlocksPerPage, 0, 0, 0) },
		func() { MakeIV(0, 0, 0, 0, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			fn()
		}()
	}
}

// Property: IVs are unique across (page48, blockIdx, chunk, major, minor).
func TestIVUniquenessProperty(t *testing.T) {
	f := func(p1, p2 uint32, b1, b2, c1, c2 uint8, maj1, maj2 uint16, min1, min2 uint8) bool {
		b1, b2 = b1%64, b2%64
		c1, c2 = c1%4, c2%4
		min1, min2 = min1&MinorMax, min2&MinorMax
		iv1 := MakeIV(addr.PageNum(p1), int(b1), uint64(maj1), min1, int(c1))
		iv2 := MakeIV(addr.PageNum(p2), int(b2), uint64(maj2), min2, int(c2))
		same := p1 == p2 && b1 == b2 && c1 == c2 && maj1 == maj2 && min1 == min2
		return (iv1 == iv2) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Decrypt(Encrypt(x)) == x under matching counters.
func TestRoundTripProperty(t *testing.T) {
	e := testEngine(t)
	f := func(data [addr.BlockSize]byte, page uint32, blk uint8, major uint64, minor uint8) bool {
		buf := make([]byte, addr.BlockSize)
		copy(buf, data[:])
		p, b, m := addr.PageNum(page), int(blk%64), minor&MinorMax
		e.Encrypt(buf, p, b, major, m)
		e.Decrypt(buf, p, b, major, m)
		return bytes.Equal(buf, data[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The core Silent Shredder security property: decrypting with an IV that
// differs in the major counter (what a shred does) yields data unrelated
// to the plaintext — the page is rendered unintelligible without writing
// anything (paper §4.2).
func TestShredRendersDataUnintelligible(t *testing.T) {
	e := testEngine(t)
	plain := bytes.Repeat([]byte{0xAB}, addr.BlockSize)
	buf := make([]byte, addr.BlockSize)
	copy(buf, plain)
	e.Encrypt(buf, 42, 7, 1, 3)

	// Attempt decrypt with the post-shred major counter.
	e.Decrypt(buf, 42, 7, 2, 3)
	if bytes.Equal(buf, plain) {
		t.Fatal("old plaintext recovered after major counter change")
	}
	// The result must not be trivially related: count matching bytes.
	match := 0
	for i := range buf {
		if buf[i] == plain[i] {
			match++
		}
	}
	if match > addr.BlockSize/4 {
		t.Fatalf("%d/64 bytes still match plaintext; pad change is not diffusing", match)
	}
}

// Even a one-bit IV difference (minor counter) produces an unrelated pad.
func TestOneBitMinorChangeChangesPad(t *testing.T) {
	e := testEngine(t)
	p1 := e.Pad(1, 0, 0, 1)
	p2 := e.Pad(1, 0, 0, 2)
	diff := 0
	for i := range p1 {
		if p1[i] != p2[i] {
			diff++
		}
	}
	if diff < addr.BlockSize/2 {
		t.Fatalf("pads differ in only %d/64 bytes", diff)
	}
}

// Pads must differ across chunks within one block (chunk index in IV).
func TestPadChunksDistinct(t *testing.T) {
	e := testEngine(t)
	pad := e.Pad(9, 9, 9, 9)
	for c := 0; c < 3; c++ {
		if bytes.Equal(pad[c*16:(c+1)*16], pad[(c+1)*16:(c+2)*16]) {
			t.Fatalf("pad chunks %d and %d identical", c, c+1)
		}
	}
}

func TestApplyShortBufferPanics(t *testing.T) {
	e := testEngine(t)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for short buffer")
		}
	}()
	e.Apply(make([]byte, 10), 0, 0, 0, 0)
}

func BenchmarkCounterBlockEncode(b *testing.B) {
	cb := CounterBlock{Major: 7}
	for i := range cb.Minor {
		cb.Minor[i] = uint8(i*5) & MinorMax
	}
	var sink [CounterBlockSize]byte
	for i := 0; i < b.N; i++ {
		cb.Major++
		sink = cb.Encode()
	}
	benchBlock = sink
}

func BenchmarkCounterBlockDecode(b *testing.B) {
	var raw [CounterBlockSize]byte
	for i := range raw {
		raw[i] = byte(i * 37)
	}
	var sink CounterBlock
	for i := 0; i < b.N; i++ {
		raw[0] = byte(i)
		sink = DecodeCounterBlock(raw)
	}
	benchCB = sink
}

var (
	benchBlock [CounterBlockSize]byte
	benchCB    CounterBlock
)

func BenchmarkPad(b *testing.B) {
	e, _ := NewEngine(make([]byte, 16))
	b.SetBytes(addr.BlockSize)
	for i := 0; i < b.N; i++ {
		e.Pad(addr.PageNum(i), i%64, uint64(i), uint8(i%127+1))
	}
}
