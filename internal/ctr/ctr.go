// Package ctr implements the counter-mode memory-encryption engine used by
// the secure NVMM controller (paper §2.2, Figure 2).
//
// Every 4KB page has a counter block holding one 64-bit major counter and
// 64 seven-bit minor counters, one per 64-byte cache block. The counter
// block itself is exactly 64 bytes (8 + 64*7/8 = 8 + 56), so it occupies a
// single cache line in the counter cache — the layout from Yan et al.
// adopted by the paper.
//
// A cache block's initialization vector (IV) combines the page's unique ID,
// the block's offset within the page, the page's major counter and the
// block's minor counter. Encrypting the IV with the memory key produces a
// one-time pad; data is encrypted and decrypted by XORing with the pad.
// Spatial uniqueness comes from pageID+offset, temporal uniqueness from the
// counters: every write back increments the block's minor counter so a pad
// is never reused.
//
// Silent Shredder reserves minor-counter value 0 to mean "shredded": the
// block has no valid ciphertext and reads return a zero-filled block
// (paper §4.2, option three). Consequently minor counters used for real
// data run from 1 to 127, and an overflow past 127 triggers page
// re-encryption rather than wrapping to the reserved value.
package ctr

import (
	"encoding/binary"
	"fmt"

	"silentshredder/internal/addr"
	"silentshredder/internal/aes"
)

// Minor-counter constants (7-bit counters, value 0 reserved as "shredded").
const (
	MinorBits     = 7
	MinorMax      = 1<<MinorBits - 1 // 127
	MinorShredded = 0                // reserved: block reads as zeros
	MinorFirst    = 1                // value after the first post-shred write
)

// CounterBlockSize is the encoded size of a page's counter block in bytes.
const CounterBlockSize = addr.BlockSize

// CounterBlock is the per-page encryption state: a major counter shared by
// the whole page and a minor counter per 64B block.
type CounterBlock struct {
	Major uint64
	Minor [addr.BlocksPerPage]uint8 // 7-bit values, 0 = shredded
}

// SaturationError reports an attempt to advance a major counter past its
// 64-bit maximum. Silently wrapping a major counter to 0 would reuse
// every pad ever generated for the page — the one unforgivable sin of
// counter-mode encryption — so the engine refuses with a typed error
// instead. (At one shred per nanosecond, saturation takes ~584 years; a
// real controller would re-key the device long before. The simulator
// makes the boundary explicit and testable.)
type SaturationError struct {
	Major uint64
}

func (e *SaturationError) Error() string {
	return fmt.Sprintf("ctr: major counter saturated at %d; advancing would wrap and reuse pads (device must be re-keyed)", e.Major)
}

// BumpMajor advances the major counter, panicking with a *SaturationError
// if it is at its maximum — the explicit rejection of silent wraparound.
func (cb *CounterBlock) BumpMajor() {
	if cb.Major == ^uint64(0) {
		panic(&SaturationError{Major: cb.Major})
	}
	cb.Major++
}

// Shred applies Silent Shredder's page shred: the major counter is
// incremented (changing every block's IV, which renders the existing
// ciphertext undecipherable) and all minor counters are reset to the
// reserved shredded value so subsequent reads return zero-filled blocks.
func (cb *CounterBlock) Shred() {
	cb.BumpMajor()
	for i := range cb.Minor {
		cb.Minor[i] = MinorShredded
	}
}

// Reencrypt applies the page re-encryption counter update: the major
// counter is incremented and all minor counters reset to MinorFirst (not
// the reserved 0 — paper §4.2). The caller is responsible for actually
// rewriting the page's blocks under the new IVs.
func (cb *CounterBlock) Reencrypt() {
	cb.BumpMajor()
	for i := range cb.Minor {
		cb.Minor[i] = MinorFirst
	}
}

// BumpMinor advances block i's minor counter for a write back and reports
// whether it overflowed. On overflow the counter state is untouched; the
// caller must perform page re-encryption (Reencrypt) and then re-issue the
// write. A shredded block's first write moves its counter to MinorFirst.
func (cb *CounterBlock) BumpMinor(i int) (overflow bool) {
	if cb.Minor[i] >= MinorMax {
		return true
	}
	cb.Minor[i]++
	return false
}

// Shredded reports whether block i is in the shredded state.
func (cb *CounterBlock) Shredded(i int) bool { return cb.Minor[i] == MinorShredded }

// Encode packs the counter block into its 64-byte memory representation:
// 8 bytes of major counter followed by 64 seven-bit minor counters packed
// LSB-first into 56 bytes, minor i at bit 7*i. Eight minors fill exactly
// seven bytes, so the minors are packed a 56-bit word at a time.
func (cb *CounterBlock) Encode() [CounterBlockSize]byte {
	var out [CounterBlockSize]byte
	binary.LittleEndian.PutUint64(out[:8], cb.Major)
	for g := 0; g < addr.BlocksPerPage/8; g++ {
		m := cb.Minor[8*g : 8*g+8 : 8*g+8]
		w := uint64(m[0]&MinorMax) | uint64(m[1]&MinorMax)<<7 |
			uint64(m[2]&MinorMax)<<14 | uint64(m[3]&MinorMax)<<21 |
			uint64(m[4]&MinorMax)<<28 | uint64(m[5]&MinorMax)<<35 |
			uint64(m[6]&MinorMax)<<42 | uint64(m[7]&MinorMax)<<49
		o := out[8+7*g : 8+7*g+7 : 8+7*g+7]
		binary.LittleEndian.PutUint32(o, uint32(w))
		binary.LittleEndian.PutUint16(o[4:], uint16(w>>32))
		o[6] = byte(w >> 48)
	}
	return out
}

// DecodeCounterBlock unpacks a 64-byte counter block representation.
func DecodeCounterBlock(raw [CounterBlockSize]byte) CounterBlock {
	var cb CounterBlock
	cb.Major = binary.LittleEndian.Uint64(raw[:8])
	for g := 0; g < addr.BlocksPerPage/8; g++ {
		o := raw[8+7*g : 8+7*g+7 : 8+7*g+7]
		w := uint64(binary.LittleEndian.Uint32(o)) |
			uint64(binary.LittleEndian.Uint16(o[4:]))<<32 | uint64(o[6])<<48
		m := cb.Minor[8*g : 8*g+8 : 8*g+8]
		for j := range m {
			m[j] = uint8(w>>(7*j)) & MinorMax
		}
	}
	return cb
}

// IV is the 16-byte initialization vector for one 16-byte pad chunk.
//
// Layout (16 bytes, the AES block size):
//
//	bytes 0..5   page ID (48 bits — unique across memory and swap)
//	byte  6      block index within page (6 bits) | pad-chunk index (2 bits)
//	byte  7      minor counter (7 bits)
//	bytes 8..15  major counter (64 bits)
//
// A 64-byte cache block needs four 16-byte pad chunks; the chunk index
// keeps their IVs distinct. None of the IV is secret (paper §2.2) — only
// the key is.
type IV [aes.BlockSize]byte

// MakeIV constructs the IV for pad chunk `chunk` (0..3) of the given block.
func MakeIV(page addr.PageNum, blockIdx int, major uint64, minor uint8, chunk int) IV {
	checkBlockIdx(blockIdx)
	if chunk < 0 || chunk >= addr.BlockSize/aes.BlockSize {
		panic(fmt.Sprintf("ctr: pad chunk %d out of range", chunk))
	}
	var iv IV
	binary.LittleEndian.PutUint64(iv[0:8], ivLow(page, blockIdx, minor, chunk))
	binary.LittleEndian.PutUint64(iv[8:16], major)
	return iv
}

// ivLow returns IV bytes 0..7 as a little-endian word; bytes 8..15 are
// the major counter. It is the one definition of the IV layout, for an
// in-range blockIdx and chunk.
func ivLow(page addr.PageNum, blockIdx int, minor uint8, chunk int) uint64 {
	return uint64(page)&(1<<48-1) | uint64(chunk)<<48 | uint64(blockIdx)<<50 |
		uint64(minor&MinorMax)<<56
}

func checkBlockIdx(blockIdx int) {
	if blockIdx < 0 || blockIdx >= addr.BlocksPerPage {
		panic(fmt.Sprintf("ctr: block index %d out of range", blockIdx))
	}
}

// padCacheSize is the number of entries in the engine's direct-mapped
// pad cache. A pad is a pure function of (page, blockIdx, major, minor),
// so caching is invisible to correctness: a hit returns bit-for-bit what
// regeneration would. 512 64-byte pads = 32KB, roughly the pad-buffer
// SRAM a controller would provision. The cache is indexed by block
// address, so eight consecutive pages' blocks each have a slot of their
// own, and a block's new pad (after its counters moved) displaces its
// dead old one.
const padCacheSize = 512

// padTag identifies the pad a pad-cache slot holds.
type padTag struct {
	page  addr.PageNum
	major uint64
	sub   uint16 // blockIdx<<8 | minor
	valid bool
}

// Engine turns IVs into pads and applies them to cache blocks. It is the
// cryptographic half of the secure memory controller; it holds the single
// system-wide memory key (the paper's design deliberately shares one key —
// §4.2 discusses why per-process keys are impractical).
//
// The engine keeps a direct-mapped cache of recently generated pads and
// scratch IV and pad buffers, so it is not safe for concurrent use; the
// simulator gives each machine its own engine.
//
// Buffers handed to the cipher escape to the heap, because it calls
// crypto/aes through an interface. PadChunk therefore gives it only this
// scratch and copies the result out, and CachedPad and PadPage
// encrypt straight into the pad cache, so no pad path allocates.
type Engine struct {
	cipher *aes.Cipher
	ivs    [addr.BlockSize]byte // scratch: four 16-byte IVs per block pad
	out    [addr.BlockSize]byte // scratch: cipher output for PadChunk
	// pads holds the cache's pads back to back, slot i at
	// [i*BlockSize, (i+1)*BlockSize), so a page's 64 slots are one 4KB
	// run; tags says which pad each slot holds.
	pads [padCacheSize * addr.BlockSize]byte
	tags [padCacheSize]padTag
	// padHits and padMisses count pad-cache lookups. Only tests read
	// them today; they stay because the benchmark's per-layer ladder
	// needs the pads a run really generates (ROADMAP item 1).
	padHits, padMisses uint64
}

// NewEngine creates an engine from a 16-, 24- or 32-byte memory key.
func NewEngine(key []byte) (*Engine, error) {
	c, err := aes.New(key)
	if err != nil {
		return nil, err
	}
	return &Engine{cipher: c}, nil
}

// PadInto computes the 64-byte pad into dst with one batched AES pass:
// the four IVs are written as two words each, differing only in the
// chunk index, and all four chunks run through the cipher in one
// EncryptBlocks call. Bit-identical to the tests' per-chunk reference Pad.
func (e *Engine) PadInto(dst *[addr.BlockSize]byte, page addr.PageNum, blockIdx int, major uint64, minor uint8) {
	checkBlockIdx(blockIdx)
	putIVs(&e.ivs, ivLow(page, blockIdx, minor, 0), major)
	e.cipher.EncryptBlocks(dst[:], e.ivs[:])
}

// putIVs writes a block pad's four IVs into ivs: bytes 0..7 of each are
// low with the chunk index added, bytes 8..15 the major counter.
func putIVs(ivs *[addr.BlockSize]byte, low, major uint64) {
	for chunk := 0; chunk < addr.BlockSize/aes.BlockSize; chunk++ {
		iv := ivs[chunk*aes.BlockSize : (chunk+1)*aes.BlockSize : (chunk+1)*aes.BlockSize]
		binary.LittleEndian.PutUint64(iv, low|uint64(chunk)<<48)
		binary.LittleEndian.PutUint64(iv[8:], major)
	}
}

// padSlot returns the pad-cache slot of block blockIdx of page.
func padSlot(page addr.PageNum, blockIdx int) int {
	return int((uint64(page)<<6 | uint64(blockIdx)) & (padCacheSize - 1))
}

// padSub is a pad tag's blockIdx<<8 | minor field.
func padSub(blockIdx int, minor uint8) uint16 {
	return uint16(blockIdx)<<8 | uint16(minor&MinorMax)
}

// CachedPad returns the pad for (page, blockIdx, major, minor) from the
// engine's direct-mapped pad cache, generating it with PadInto on a miss.
// The returned pointer is valid until the entry is displaced; callers
// must not mutate it.
func (e *Engine) CachedPad(page addr.PageNum, blockIdx int, major uint64, minor uint8) *[addr.BlockSize]byte {
	checkBlockIdx(blockIdx) // the tag keeps only blockIdx's low 8 bits
	i := padSlot(page, blockIdx)
	pad := (*[addr.BlockSize]byte)(e.pads[i*addr.BlockSize:])
	tag := padTag{page: page, major: major, sub: padSub(blockIdx, minor), valid: true}
	if e.tags[i] == tag {
		e.padHits++
		return pad
	}
	e.padMisses++
	e.tags[i] = tag
	e.PadInto(pad, page, blockIdx, major, minor)
	return pad
}

// PadPage fills the pad cache with the pads of all 64 blocks of page
// under major and minors[i], in one AES pass: a page's 64 slots are one
// contiguous run, so its 256 IVs are written there and encrypted in
// place. It displaces whatever pads of other pages shared those slots.
// Each pad is bit-identical to PadInto's.
func (e *Engine) PadPage(page addr.PageNum, major uint64, minors *[addr.BlocksPerPage]uint8) {
	base := padSlot(page, 0)
	run := e.pads[base*addr.BlockSize : (base+addr.BlocksPerPage)*addr.BlockSize]
	for bi, minor := range minors {
		putIVs((*[addr.BlockSize]byte)(run[bi*addr.BlockSize:]), ivLow(page, bi, minor, 0), major)
		e.tags[base+bi] = padTag{page: page, major: major, sub: padSub(bi, minor), valid: true}
	}
	e.cipher.EncryptBlocks(run, run)
	e.padMisses += addr.BlocksPerPage
}

// PadChunk computes one 16-byte pad chunk (chunk 0..3) of a block's pad.
// Schemes that encrypt sub-block regions under different counters (e.g.
// DEUCE) use it to avoid generating the chunks they do not need.
func (e *Engine) PadChunk(page addr.PageNum, blockIdx int, major uint64, minor uint8, chunk int) [aes.BlockSize]byte {
	iv := MakeIV(page, blockIdx, major, minor, chunk)
	copy(e.ivs[:], iv[:])
	e.cipher.Encrypt(e.out[:], e.ivs[:])
	return [aes.BlockSize]byte(e.out[:])
}

// Apply XORs the pad for (page, blockIdx, major, minor) into the 64-byte
// block in buf. Because XOR is an involution the same call both encrypts
// and decrypts; naming both operations makes call sites readable. The pad
// comes from the engine's pad cache and is XORed word-wise; the result is
// bit-identical to the naive per-byte path.
func (e *Engine) Apply(buf []byte, page addr.PageNum, blockIdx int, major uint64, minor uint8) {
	if len(buf) < addr.BlockSize {
		panic("ctr: buffer shorter than a block")
	}
	pad := e.CachedPad(page, blockIdx, major, minor)
	for i := 0; i < addr.BlockSize; i += 8 {
		v := binary.LittleEndian.Uint64(buf[i:]) ^ binary.LittleEndian.Uint64(pad[i:])
		binary.LittleEndian.PutUint64(buf[i:], v)
	}
}

// Encrypt encrypts a 64-byte plaintext block in place.
func (e *Engine) Encrypt(buf []byte, page addr.PageNum, blockIdx int, major uint64, minor uint8) {
	e.Apply(buf, page, blockIdx, major, minor)
}

// Decrypt decrypts a 64-byte ciphertext block in place.
func (e *Engine) Decrypt(buf []byte, page addr.PageNum, blockIdx int, major uint64, minor uint8) {
	e.Apply(buf, page, blockIdx, major, minor)
}
