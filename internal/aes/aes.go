// Package aes provides the AES block cipher (FIPS-197) that the secure
// memory controller uses in counter mode: the controller encrypts an
// initialization vector to produce a one-time pad and XORs the pad with
// the data (paper §2.2, Figure 2). Counter mode only ever invokes the
// forward (encryption) direction, so that is all the package offers.
//
// The simulator charges pad latency in modeled cycles, so on the host
// the cipher only has to produce the pad's bits, as fast as it can.
// Encrypt runs through the standard library's crypto/aes, which uses the
// CPU's AES instructions where it has them and portable Go code
// elsewhere. EncryptBlocks, which every 64-byte pad goes through, runs
// whole groups of four blocks through the package's own AES-NI kernel
// where the CPU has AES-NI (amd64 builds without the purego tag), over
// the key schedule New expands; everywhere else, and for a trailing one
// to three blocks, it runs Encrypt block by block. The tests check both
// against the FIPS-197 vectors, against each other and against a
// from-scratch, byte-oriented rendering of the specification.
package aes

import (
	stdaes "crypto/aes"
	"crypto/cipher"
	"encoding/binary"
)

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// sbox is the AES forward substitution box.
var sbox = [256]byte{
	0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
	0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
	0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
	0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
	0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
	0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
	0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
	0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
	0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
	0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
	0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
	0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
	0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
	0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
	0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
	0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
}

// xtime multiplies by x (i.e. {02}) in GF(2^8) with the AES polynomial.
func xtime(b byte) byte {
	if b&0x80 != 0 {
		return b<<1 ^ 0x1b
	}
	return b << 1
}

// Cipher is an expanded-key AES instance. It is safe for concurrent use:
// all methods are read-only with respect to the receiver.
type Cipher struct {
	block  cipher.Block // crypto/aes forward cipher behind Encrypt
	rounds int          // 10, 12 or 14
	// rk holds the rounds+1 round keys, 16 bytes each in FIPS-197 byte
	// order: the layout an AESENC round-key operand loads.
	rk [15 * BlockSize]byte
}

// New creates a Cipher from a 16-, 24- or 32-byte key. Any other length
// returns crypto/aes's KeySizeError.
func New(key []byte) (*Cipher, error) {
	block, err := stdaes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	nk := len(key) / 4
	c := &Cipher{block: block, rounds: nk + 6}
	n := 4 * (c.rounds + 1)
	var w [60]uint32
	for i := 0; i < nk; i++ {
		w[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	rcon := uint32(1)
	for i := nk; i < n; i++ {
		t := w[i-1]
		switch {
		case i%nk == 0:
			t = subWord(rotWord(t)) ^ rcon<<24
			rcon = uint32(xtime(byte(rcon)))
		case nk > 6 && i%nk == 4:
			t = subWord(t)
		}
		w[i] = w[i-nk] ^ t
	}
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint32(c.rk[4*i:], w[i])
	}
	return c, nil
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xff])<<16 |
		uint32(sbox[w>>8&0xff])<<8 | uint32(sbox[w&0xff])
}

// Encrypt encrypts one 16-byte block from src into dst. Both must be at
// least BlockSize bytes, and they may overlap only exactly (dst == src);
// a partial overlap panics.
func (c *Cipher) Encrypt(dst, src []byte) { c.block.Encrypt(dst, src) }

// EncryptBlocks encrypts len(src)/BlockSize consecutive 16-byte blocks
// from src into dst. Counter-mode pad generation uses it to produce all
// four chunks of a 64-byte block pad in one call. Partial trailing bytes
// are ignored; dst must hold at least as many whole blocks as src, and
// the two may overlap only exactly (dst == src).
//
// Whole groups of four blocks go through the four-block kernel where the
// platform has one (encryptGroups); the rest go through Encrypt.
func (c *Cipher) EncryptBlocks(dst, src []byte) {
	n := len(src) / BlockSize * BlockSize
	if len(dst) < n {
		panic("aes: dst shorter than src blocks")
	}
	for off := c.encryptGroups(dst, src, n); off < n; off += BlockSize {
		c.block.Encrypt(dst[off:off+BlockSize], src[off:off+BlockSize])
	}
}
