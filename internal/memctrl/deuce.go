package memctrl

import (
	"silentshredder/internal/addr"
	"silentshredder/internal/ctr"
)

// DEUCE (Dual-Counter Encryption, Young et al. ASPLOS 2015 — the paper's
// reference [43]) is the write-efficient encryption scheme the paper
// names as directly composable with Silent Shredder ("Our work is
// orthogonal and can be easily integrated with their design, DEUCE").
//
// Standard counter-mode re-encrypts the whole 64B block on every write
// back, so even a one-word update flips ~half the cells — which is what
// defeats Data-Comparison-Write. DEUCE keeps two counters per block:
//
//   - the *leading* counter: the block's current minor counter,
//     incremented every write back;
//   - the *trailing* counter: the leading counter rounded down to the
//     start of its epoch (every EpochLength writes).
//
// Each 16-byte chunk of the block carries a modified bit. Chunks written
// since the epoch began are encrypted under the leading counter and
// re-encrypted on every write; untouched chunks keep the ciphertext they
// had at the epoch start (trailing counter), so their cells do not flip
// at all. At an epoch boundary the whole block is re-encrypted under the
// new counter and the modified mask clears.
//
// Combined with Silent Shredder, a shred still just resets the counters:
// the modified masks of the page's blocks are cleared along with them.

// deuceChunks is the number of DEUCE chunks per block (16B granularity —
// one AES pad chunk each).
const deuceChunks = addr.BlockSize / 16

// DefaultDeuceEpoch is the epoch length in write backs (DEUCE's design
// point).
const DefaultDeuceEpoch = 32

// deuceState tracks the per-block modified-chunk masks.
type deuceState struct {
	epoch int
	mask  map[addr.Phys]uint8 // bit i = chunk i modified this epoch
}

func newDeuceState() *deuceState {
	return &deuceState{epoch: DefaultDeuceEpoch, mask: make(map[addr.Phys]uint8)}
}

// trailing returns the trailing counter for a leading minor counter:
// the epoch start, with epochs beginning at 1, 1+E, 1+2E, ... (minor 0 is
// Silent Shredder's reserved value and never an epoch base).
func (d *deuceState) trailing(minor uint8) uint8 {
	if minor == ctr.MinorShredded {
		return ctr.MinorShredded
	}
	return minor - (minor-ctr.MinorFirst)%uint8(d.epoch)
}

// epochStart reports whether a write that advanced the minor counter to
// `minor` begins a new epoch (and must re-encrypt the whole block).
func (d *deuceState) epochStart(minor uint8) bool {
	return (minor-ctr.MinorFirst)%uint8(d.epoch) == 0
}

// clearPage drops the masks of every block in page p (shred or
// re-encryption reset the block to single-counter state).
func (d *deuceState) clearPage(p addr.PageNum) {
	for i := 0; i < addr.BlocksPerPage; i++ {
		delete(d.mask, p.BlockAddr(i))
	}
}

// deuceDecrypt decrypts buf (the raw 64B ciphertext of block a) in place
// using the per-chunk counters implied by the mask.
func (mc *Controller) deuceDecrypt(buf []byte, a addr.Phys, cb *ctr.CounterBlock) {
	p, bi := a.Page(), a.BlockIndex()
	leading := cb.Minor[bi]
	trailingCtr := mc.deuce.trailing(leading)
	mask := mc.deuce.mask[a]
	for c := 0; c < deuceChunks; c++ {
		counter := trailingCtr
		if mask&(1<<c) != 0 {
			counter = leading
		}
		mc.decryptChunk(buf[c*16:(c+1)*16], p, bi, cb.Major, counter, c)
	}
}

// deuceEncryptWrite writes into out the new ciphertext for block a given
// the new plaintext `plain` and the block's previous ciphertext
// `oldCipher` (still encrypted under the page's major counter, the
// block's pre-bump minor counter oldLeading and the old mask). The minor
// counter has already been bumped to `leading`. Unmodified chunks outside
// an epoch boundary keep their old ciphertext bytes — that is DEUCE's
// entire effect.
func (mc *Controller) deuceEncryptWrite(out []byte, a addr.Phys, plain, oldCipher []byte, cb *ctr.CounterBlock, oldLeading uint8) {
	p, bi := a.Page(), a.BlockIndex()
	leading := cb.Minor[bi]

	if mc.deuce.epochStart(leading) {
		// Epoch boundary: full re-encryption under the new counter.
		delete(mc.deuce.mask, a)
		copy(out, plain)
		for c := 0; c < deuceChunks; c++ {
			mc.encryptChunk(out[c*16:(c+1)*16], p, bi, cb.Major, leading, c)
		}
		return
	}

	// Recover the previous plaintext to find which chunks changed.
	oldPlain := make([]byte, addr.BlockSize)
	copy(oldPlain, oldCipher)
	oldMask := mc.deuce.mask[a]
	if oldLeading != ctr.MinorShredded {
		oldTrailing := mc.deuce.trailing(oldLeading)
		for c := 0; c < deuceChunks; c++ {
			counter := oldTrailing
			if oldMask&(1<<c) != 0 {
				counter = oldLeading
			}
			mc.decryptChunk(oldPlain[c*16:(c+1)*16], p, bi, cb.Major, counter, c)
		}
	} else {
		// Previously shredded/never written: old plaintext is zeros.
		for i := range oldPlain {
			oldPlain[i] = 0
		}
	}

	newMask := oldMask
	for c := 0; c < deuceChunks; c++ {
		chunkChanged := !equal16(plain[c*16:(c+1)*16], oldPlain[c*16:(c+1)*16])
		if chunkChanged {
			newMask |= 1 << c
		}
		if newMask&(1<<c) != 0 {
			// Modified this epoch: re-encrypt under the leading counter.
			copy(out[c*16:(c+1)*16], plain[c*16:(c+1)*16])
			mc.encryptChunk(out[c*16:(c+1)*16], p, bi, cb.Major, leading, c)
		} else {
			// Untouched since the epoch began: ciphertext unchanged,
			// zero cell flips.
			copy(out[c*16:(c+1)*16], oldCipher[c*16:(c+1)*16])
		}
	}
	mc.deuce.mask[a] = newMask
}

func equal16(a, b []byte) bool {
	for i := 0; i < 16; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// encryptChunk / decryptChunk apply one 16-byte pad chunk. XOR symmetry
// makes them the same operation; both names keep call sites readable.
func (mc *Controller) encryptChunk(buf []byte, p addr.PageNum, bi int, major uint64, minor uint8, chunk int) {
	mc.applyChunk(buf, p, bi, major, minor, chunk)
}

func (mc *Controller) decryptChunk(buf []byte, p addr.PageNum, bi int, major uint64, minor uint8, chunk int) {
	mc.applyChunk(buf, p, bi, major, minor, chunk)
}

func (mc *Controller) applyChunk(buf []byte, p addr.PageNum, bi int, major uint64, minor uint8, chunk int) {
	pad := mc.engine.PadChunk(p, bi, major, minor, chunk)
	for i := 0; i < 16; i++ {
		buf[i] ^= pad[i]
	}
}
