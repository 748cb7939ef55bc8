package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// FIPS-197 Appendix C example vectors.
func TestFIPS197Vectors(t *testing.T) {
	cases := []struct {
		name, key, pt, ct string
	}{
		{
			"AES-128 C.1",
			"000102030405060708090a0b0c0d0e0f",
			"00112233445566778899aabbccddeeff",
			"69c4e0d86a7b0430d8cdb78070b4c55a",
		},
		{
			"AES-192 C.2",
			"000102030405060708090a0b0c0d0e0f1011121314151617",
			"00112233445566778899aabbccddeeff",
			"dda97ca4864cdfe06eaf70a0ec0d7191",
		},
		{
			"AES-256 C.3",
			"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
			"00112233445566778899aabbccddeeff",
			"8ea2b7ca516745bfeafc49904b496089",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(unhex(t, tc.key))
			if err != nil {
				t.Fatal(err)
			}
			want := unhex(t, tc.ct)
			got := make([]byte, 16)
			c.Encrypt(got, unhex(t, tc.pt))
			if !bytes.Equal(got, want) {
				t.Errorf("Encrypt = %x, want %x", got, want)
			}
			c.EncryptRef(got, unhex(t, tc.pt))
			if !bytes.Equal(got, want) {
				t.Errorf("EncryptRef = %x, want %x", got, want)
			}
			// Five copies: one four-block group for the kernel and a
			// one-block tail for crypto/aes.
			blocks := bytes.Repeat(unhex(t, tc.pt), 5)
			c.EncryptBlocks(blocks, blocks)
			for off := 0; off < len(blocks); off += BlockSize {
				if !bytes.Equal(blocks[off:off+BlockSize], want) {
					t.Errorf("EncryptBlocks block %d = %x, want %x", off/BlockSize, blocks[off:off+BlockSize], want)
				}
			}
		})
	}
}

func TestRounds(t *testing.T) {
	for _, tc := range []struct{ keyLen, rounds int }{{16, 10}, {24, 12}, {32, 14}} {
		c := MustNew(make([]byte, tc.keyLen))
		if c.rounds != tc.rounds {
			t.Errorf("key %d bytes: %d rounds, want %d", tc.keyLen, c.rounds, tc.rounds)
		}
	}
}

func TestInvalidKeySize(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 31, 33} {
		if _, err := New(make([]byte, n)); err == nil {
			t.Errorf("New with %d-byte key: want error", n)
		}
	}
}

// Property: Encrypt agrees with a separately built crypto/aes cipher for
// random keys and blocks and all three key sizes.
func TestMatchesStdlibProperty(t *testing.T) {
	for _, keyLen := range []int{16, 24, 32} {
		f := func(keySeed, block [16]byte, pad [16]byte) bool {
			key := make([]byte, keyLen)
			copy(key, keySeed[:])
			copy(key[16:], pad[:]) // fills 24/32-byte keys; no-op for 16
			ours := MustNew(key)
			std, err := stdaes.NewCipher(key)
			if err != nil {
				return false
			}
			got := make([]byte, 16)
			want := make([]byte, 16)
			ours.Encrypt(got, block[:])
			std.Encrypt(want, block[:])
			return bytes.Equal(got, want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("keyLen %d: %v", keyLen, err)
		}
	}
}

// Property: Encrypt (crypto/aes) agrees with the from-scratch EncryptRef
// for every key size.
func TestEncryptMatchesReferenceProperty(t *testing.T) {
	for _, keyLen := range []int{16, 24, 32} {
		f := func(keySeed, pad, block [16]byte) bool {
			key := make([]byte, keyLen)
			copy(key, keySeed[:])
			copy(key[16:], pad[:])
			c := MustNew(key)
			got := make([]byte, 16)
			ref := make([]byte, 16)
			c.Encrypt(got, block[:])
			c.EncryptRef(ref, block[:])
			return bytes.Equal(got, ref)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("keyLen %d: %v", keyLen, err)
		}
	}
}

// Encrypting in place must work (dst == src); a partial overlap panics,
// as crypto/aes does.
func TestInPlace(t *testing.T) {
	c := MustNew(make([]byte, 16))
	buf := []byte("0123456789abcdef")
	want := make([]byte, 16)
	c.Encrypt(want, buf)
	c.Encrypt(buf, buf)
	if !bytes.Equal(buf, want) {
		t.Fatal("in-place encryption differs")
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic on partially overlapping buffers")
		}
	}()
	two := make([]byte, 2*BlockSize)
	c.Encrypt(two[1:], two)
}

// EncryptBlocks over 1..9 blocks, so whole four-block groups and a
// one-to-three-block tail both occur, for every key size: it matches a
// separately built crypto/aes cipher and EncryptRef block by block,
// works in place, ignores a trailing partial block and panics on a short
// dst.
func TestEncryptBlocks(t *testing.T) {
	for _, keyLen := range []int{16, 24, 32} {
		key := make([]byte, keyLen)
		for i := range key {
			key[i] = byte(i*13 + keyLen)
		}
		c := MustNew(key)
		std, err := stdaes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 9; n++ {
			src := make([]byte, n*BlockSize+5) // 5 trailing bytes: ignored
			for i := range src {
				src[i] = byte(i*7 + n + keyLen)
			}
			want := make([]byte, n*BlockSize)
			ref := make([]byte, n*BlockSize)
			for off := 0; off < len(want); off += BlockSize {
				std.Encrypt(want[off:], src[off:])
				c.EncryptRef(ref[off:], src[off:])
			}
			if !bytes.Equal(ref, want) {
				t.Fatalf("key %d, %d blocks: EncryptRef differs from crypto/aes", keyLen, n)
			}
			got := bytes.Repeat([]byte{0xee}, len(src))
			c.EncryptBlocks(got, src)
			if !bytes.Equal(got[:len(want)], want) {
				t.Errorf("key %d, %d blocks: EncryptBlocks differs from crypto/aes", keyLen, n)
			}
			if tail := got[len(want):]; !bytes.Equal(tail, bytes.Repeat([]byte{0xee}, len(tail))) {
				t.Errorf("key %d, %d blocks: trailing partial block was written", keyLen, n)
			}
			c.EncryptBlocks(src, src)
			if !bytes.Equal(src[:len(want)], want) {
				t.Errorf("key %d, %d blocks: in-place EncryptBlocks differs", keyLen, n)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic when dst holds fewer whole blocks than src")
		}
	}()
	MustNew(make([]byte, 16)).EncryptBlocks(make([]byte, 3*BlockSize-1), make([]byte, 3*BlockSize))
}

func TestShortBufferPanics(t *testing.T) {
	c := MustNew(make([]byte, 16))
	for _, fn := range []func(){
		func() { c.Encrypt(make([]byte, 16), make([]byte, 8)) },
		func() { c.Encrypt(make([]byte, 8), make([]byte, 16)) },
		func() { c.EncryptRef(make([]byte, 16), make([]byte, 8)) },
		func() { c.EncryptRef(make([]byte, 8), make([]byte, 16)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic on short buffer")
				}
			}()
			fn()
		}()
	}
}

func BenchmarkEncryptBlock(b *testing.B) {
	c := MustNew(make([]byte, 16))
	buf := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Encrypt(buf, buf)
	}
}

// BenchmarkEncryptBlocks4 measures one 64-byte pad's worth of blocks,
// the call every pad makes.
func BenchmarkEncryptBlocks4(b *testing.B) {
	c := MustNew(make([]byte, 16))
	buf := make([]byte, 4*BlockSize)
	b.SetBytes(4 * BlockSize)
	for i := 0; i < b.N; i++ {
		c.EncryptBlocks(buf, buf)
	}
}

func BenchmarkEncryptBlockRef(b *testing.B) {
	c := MustNew(make([]byte, 16))
	buf := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.EncryptRef(buf, buf)
	}
}

// state is the AES state laid out column-major: state[r+4*c] in FIPS
// terms is held here as s[4*col+row].
type state [16]byte

// addRoundKey XORs round key `round` into the state; the schedule holds
// each round key in the state's own byte order.
func (c *Cipher) addRoundKey(s *state, round int) {
	for i := range s {
		s[i] ^= c.rk[BlockSize*round+i]
	}
}

func subBytes(s *state) {
	for i := range s {
		s[i] = sbox[s[i]]
	}
}

// shiftRows rotates row r left by r positions.
func shiftRows(s *state) {
	s[1], s[5], s[9], s[13] = s[5], s[9], s[13], s[1]
	s[2], s[6], s[10], s[14] = s[10], s[14], s[2], s[6]
	s[3], s[7], s[11], s[15] = s[15], s[3], s[7], s[11]
}

func mixColumns(s *state) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c+0] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3
		s[4*c+1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3
		s[4*c+2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3)
		s[4*c+3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3)
	}
}

// EncryptRef is the from-scratch reference implementation of the forward
// cipher: SubBytes/ShiftRows/MixColumns/AddRoundKey exactly as FIPS-197
// writes them, over the package's own key schedule (the one the AES-NI
// kernel reads). The tests check Encrypt and EncryptBlocks against it.
func (c *Cipher) EncryptRef(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: input not full block")
	}
	var s state
	copy(s[:], src[:16])
	c.addRoundKey(&s, 0)
	for round := 1; round < c.rounds; round++ {
		subBytes(&s)
		shiftRows(&s)
		mixColumns(&s)
		c.addRoundKey(&s, round)
	}
	subBytes(&s)
	shiftRows(&s)
	c.addRoundKey(&s, c.rounds)
	copy(dst[:16], s[:])
}

// MustNew is New but panics on an invalid key size.
func MustNew(key []byte) *Cipher {
	c, err := New(key)
	if err != nil {
		panic(err)
	}
	return c
}
