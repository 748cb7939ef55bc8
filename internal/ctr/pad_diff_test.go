package ctr

import (
	"bytes"
	"math/rand"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/aes"
)

// Pad computes the 64-byte one-time pad for a block under the given
// counters. This is the naive reference path: one MakeIV + Encrypt call
// per 16-byte chunk, no caching. PadInto/CachedPad are the fast paths;
// the differential tests pin them bit-identical to this.
func (e *Engine) Pad(page addr.PageNum, blockIdx int, major uint64, minor uint8) [addr.BlockSize]byte {
	for chunk := 0; chunk < addr.BlockSize/aes.BlockSize; chunk++ {
		iv := MakeIV(page, blockIdx, major, minor, chunk)
		off := chunk * aes.BlockSize
		copy(e.ivs[off:], iv[:])
		e.cipher.Encrypt(e.out[off:], e.ivs[off:])
	}
	return e.out
}

// padCorpus enumerates the counter combinations the differential tests
// sweep: every edge of each field plus a seeded random cloud. The fast
// paths (PadInto, CachedPad) must be byte-identical to the naive Pad
// reference on all of them.
func padCorpus() []struct {
	page  addr.PageNum
	blk   int
	major uint64
	minor uint8
} {
	type tc = struct {
		page  addr.PageNum
		blk   int
		major uint64
		minor uint8
	}
	corpus := []tc{
		{0, 0, 0, 0},
		{0, 0, 0, MinorMax},
		{0, addr.BlocksPerPage - 1, 0, 1},
		{1, 0, 1, 1},
		{addr.PageNum(1) << 30, 63, ^uint64(0), MinorMax},
		// A colliding pair: the cache indexes by page<<6|blk modulo its
		// size, so pages 0 and padCacheSize share block 7's slot and the
		// second entry displaces the first.
		{0, 7, 2, 3},
		{addr.PageNum(padCacheSize), 7, 2, 3},
	}
	rng := rand.New(rand.NewSource(20260808))
	for i := 0; i < 512; i++ {
		corpus = append(corpus, tc{
			page:  addr.PageNum(rng.Uint64() >> 24),
			blk:   rng.Intn(addr.BlocksPerPage),
			major: rng.Uint64(),
			minor: uint8(rng.Intn(MinorMax + 1)),
		})
	}
	return corpus
}

// TestPadIntoMatchesPad pins the batched EncryptBlocks path bit-identical
// to the chunk-at-a-time reference.
func TestPadIntoMatchesPad(t *testing.T) {
	e := testEngine(t)
	for _, c := range padCorpus() {
		want := e.Pad(c.page, c.blk, c.major, c.minor)
		var got [addr.BlockSize]byte
		e.PadInto(&got, c.page, c.blk, c.major, c.minor)
		if !bytes.Equal(got[:], want[:]) {
			t.Fatalf("PadInto(%d,%d,%d,%d) differs from Pad", c.page, c.blk, c.major, c.minor)
		}
	}
}

// TestCachedPadMatchesPad pins the pad-cache path: first query (miss),
// repeat query (hit), and re-query after a colliding entry displaced it
// all must return the reference pad.
func TestCachedPadMatchesPad(t *testing.T) {
	e := testEngine(t)
	corpus := padCorpus()
	for _, c := range corpus {
		want := e.Pad(c.page, c.blk, c.major, c.minor)
		for pass := 0; pass < 2; pass++ { // miss, then hit
			got := e.CachedPad(c.page, c.blk, c.major, c.minor)
			if !bytes.Equal(got[:], want[:]) {
				t.Fatalf("CachedPad(%d,%d,%d,%d) pass %d differs from Pad", c.page, c.blk, c.major, c.minor, pass)
			}
		}
	}
	// Sweep again in a different order so most entries have been
	// displaced in between: stale hits would surface here.
	for i := len(corpus) - 1; i >= 0; i-- {
		c := corpus[i]
		want := e.Pad(c.page, c.blk, c.major, c.minor)
		if got := e.CachedPad(c.page, c.blk, c.major, c.minor); !bytes.Equal(got[:], want[:]) {
			t.Fatalf("CachedPad(%d,%d,%d,%d) after displacement differs from Pad", c.page, c.blk, c.major, c.minor)
		}
	}
	if hits, misses := e.padHits, e.padMisses; hits == 0 || misses == 0 {
		t.Fatalf("corpus did not exercise both cache outcomes: hits=%d misses=%d", hits, misses)
	}
}

// The pad cache holds a whole page: after one pass over a page's 64
// blocks at one (major, minor), a second pass hits on every block. A
// cache that mapped a page's blocks to a few slots would regenerate them.
func TestCachedPadHoldsPage(t *testing.T) {
	e := testEngine(t)
	const page, major, minor = 12345, 6, 7
	for blk := 0; blk < addr.BlocksPerPage; blk++ {
		e.CachedPad(page, blk, major, minor)
	}
	hits0, misses0 := e.padHits, e.padMisses
	for blk := 0; blk < addr.BlocksPerPage; blk++ {
		want := e.Pad(page, blk, major, minor)
		if got := e.CachedPad(page, blk, major, minor); *got != want {
			t.Fatalf("CachedPad(%d,%d,%d,%d) differs from Pad", page, blk, major, minor)
		}
	}
	hits, misses := e.padHits, e.padMisses
	if hits-hits0 != addr.BlocksPerPage || misses != misses0 {
		t.Fatalf("second pass over a page: %d hits, %d misses; want %d hits, 0 misses",
			hits-hits0, misses-misses0, addr.BlocksPerPage)
	}
}

// PadPage fills a page's 64 pad-cache slots with exactly PadInto's pads,
// over random majors and minors 0–127: a CachedPad of every block then
// hits and returns them. It displaces the pads another page had in the
// same slots, and a later CachedPad of a displaced block misses and
// regenerates the right pad.
func TestPadPageMatchesPadInto(t *testing.T) {
	e := testEngine(t)
	rng := rand.New(rand.NewSource(20261019))
	for trial := 0; trial < 64; trial++ {
		page := addr.PageNum(rng.Uint64() >> 24)
		other := page + padCacheSize/addr.BlocksPerPage*addr.PageNum(1+rng.Intn(4)) // same slots
		major, otherMajor := rng.Uint64(), rng.Uint64()
		var minors [addr.BlocksPerPage]uint8
		for i := range minors {
			minors[i] = uint8(rng.Intn(MinorMax + 1))
		}
		for blk := 0; blk < addr.BlocksPerPage; blk++ {
			e.CachedPad(other, blk, otherMajor, minors[blk])
		}
		hits0, misses0 := e.padHits, e.padMisses
		e.PadPage(page, major, &minors)
		for blk, minor := range minors {
			var want [addr.BlockSize]byte
			e.PadInto(&want, page, blk, major, minor)
			if got := e.CachedPad(page, blk, major, minor); *got != want {
				t.Fatalf("PadPage(%d, %d) block %d minor %d differs from PadInto", page, major, blk, minor)
			}
		}
		hits, misses := e.padHits, e.padMisses
		if hits-hits0 != addr.BlocksPerPage || misses-misses0 != addr.BlocksPerPage {
			t.Fatalf("after PadPage: %d hits and %d misses over the page; want %d and %d (PadPage's pads)",
				hits-hits0, misses-misses0, addr.BlocksPerPage, addr.BlocksPerPage)
		}
		for _, blk := range []int{0, 1 + rng.Intn(addr.BlocksPerPage-2), addr.BlocksPerPage - 1} {
			want := e.Pad(other, blk, otherMajor, minors[blk])
			if got := e.CachedPad(other, blk, otherMajor, minors[blk]); *got != want {
				t.Fatalf("displaced page %d block %d regenerated a wrong pad", other, blk)
			}
		}
		if _, m := e.padHits, e.padMisses; m-misses != 3 {
			t.Fatalf("displaced blocks: %d misses, want 3", m-misses)
		}
	}
}

// An out-of-range block index panics on the fast paths too, also when
// its low bits name a block whose pad is cached: block 263 of page 4
// has block 7's slot and, in the tag's eight bits, its index.
func TestPadBlockIndexPanics(t *testing.T) {
	e := testEngine(t)
	e.CachedPad(4, 7, 1, 1)
	var dst [addr.BlockSize]byte
	for _, fn := range []func(){
		func() { e.CachedPad(4, 263, 1, 1) },
		func() { e.CachedPad(4, -1, 1, 1) },
		func() { e.PadInto(&dst, 4, addr.BlocksPerPage, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic on an out-of-range block index")
				}
			}()
			fn()
		}()
	}
}

// FuzzPadEquivalence fuzzes the three pad paths against each other.
func FuzzPadEquivalence(f *testing.F) {
	f.Add(uint64(0), uint8(0), uint64(0), uint8(0))
	f.Add(uint64(12345), uint8(63), ^uint64(0), uint8(MinorMax))
	f.Add(uint64(1)<<40, uint8(17), uint64(7), uint8(1))
	e, err := NewEngine([]byte("0123456789abcdef"))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, page uint64, blk uint8, major uint64, minor uint8) {
		p := addr.PageNum(page)
		b := int(blk) % addr.BlocksPerPage
		m := minor & MinorMax
		want := e.Pad(p, b, major, m)
		var into [addr.BlockSize]byte
		e.PadInto(&into, p, b, major, m)
		if !bytes.Equal(into[:], want[:]) {
			t.Fatalf("PadInto differs from Pad for (%d,%d,%d,%d)", p, b, major, m)
		}
		if got := e.CachedPad(p, b, major, m); !bytes.Equal(got[:], want[:]) {
			t.Fatalf("CachedPad differs from Pad for (%d,%d,%d,%d)", p, b, major, m)
		}
	})
}

// TestPadFastPathsZeroAllocs pins the pad paths allocation-free: pad
// generation runs on every NVM block read and write, and PadChunk on
// every DEUCE chunk, so a single allocation here multiplies across the
// whole simulation. Pad is included because a local buffer handed to the
// cipher would escape to the heap on every call.
func TestPadFastPathsZeroAllocs(t *testing.T) {
	e := testEngine(t)
	var dst [addr.BlockSize]byte
	if n := testing.AllocsPerRun(1000, func() {
		e.PadInto(&dst, 42, 7, 3, 1)
	}); n != 0 {
		t.Fatalf("PadInto allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		dst = e.Pad(42, 7, 3, 1)
	}); n != 0 {
		t.Fatalf("Pad allocates %v per call, want 0", n)
	}
	var chunk [16]byte
	if n := testing.AllocsPerRun(1000, func() {
		chunk = e.PadChunk(42, 7, 3, 1, 2)
	}); n != 0 {
		t.Fatalf("PadChunk allocates %v per call, want 0", n)
	}
	if chunk != [16]byte(dst[32:48]) {
		t.Fatal("PadChunk differs from chunk 2 of Pad")
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		e.CachedPad(addr.PageNum(i), i%addr.BlocksPerPage, uint64(i), uint8(i%MinorMax+1))
		i++
	}); n != 0 {
		t.Fatalf("CachedPad (miss path) allocates %v per call, want 0", n)
	}
	var minors [addr.BlocksPerPage]uint8
	if n := testing.AllocsPerRun(100, func() {
		e.PadPage(addr.PageNum(i), uint64(i), &minors)
		i++
	}); n != 0 {
		t.Fatalf("PadPage allocates %v per call, want 0", n)
	}
}

// BenchmarkPadInto measures batched pad generation (the miss-path cost
// of every encrypted block access).
func BenchmarkPadInto(b *testing.B) {
	e, _ := NewEngine(make([]byte, 16))
	var dst [addr.BlockSize]byte
	b.SetBytes(addr.BlockSize)
	for i := 0; i < b.N; i++ {
		e.PadInto(&dst, addr.PageNum(i), i%addr.BlocksPerPage, uint64(i), uint8(i%MinorMax+1))
	}
}

// BenchmarkPadPage measures one page's 64 pads generated in one pass,
// the pad work of a page zeroing.
func BenchmarkPadPage(b *testing.B) {
	e, _ := NewEngine(make([]byte, 16))
	var minors [addr.BlocksPerPage]uint8
	b.SetBytes(addr.PageSize)
	for i := 0; i < b.N; i++ {
		minors[i%addr.BlocksPerPage] = uint8(i%MinorMax + 1)
		e.PadPage(addr.PageNum(i), uint64(i), &minors)
	}
}

// BenchmarkCachedPadHit measures the pad-cache hit path (repeated access
// to a block under unchanged counters).
func BenchmarkCachedPadHit(b *testing.B) {
	e, _ := NewEngine(make([]byte, 16))
	e.CachedPad(1, 2, 3, 4)
	b.SetBytes(addr.BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.CachedPad(1, 2, 3, 4)
	}
}

// BenchmarkCachedPadMiss measures the pad-cache miss path (distinct
// counters every call: generate plus install).
func BenchmarkCachedPadMiss(b *testing.B) {
	e, _ := NewEngine(make([]byte, 16))
	b.SetBytes(addr.BlockSize)
	for i := 0; i < b.N; i++ {
		e.CachedPad(addr.PageNum(i), i%addr.BlocksPerPage, uint64(i), uint8(i%MinorMax+1))
	}
}
