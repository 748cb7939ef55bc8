//go:build amd64 && !purego

package aes

// hasAESNI reports whether the CPU has the AES-NI instructions: CPUID
// leaf 1, ECX bit 25.
var hasAESNI = cpuid1ECX()&(1<<25) != 0

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// encrypt4 encrypts the four consecutive blocks at src into dst under
// the nr+1 round keys at rk. It loads all four blocks before it stores
// any, so dst may equal src.
//
//go:noescape
func encrypt4(nr int, rk, dst, src *byte)

// encryptGroups encrypts the whole four-block groups of src[:n] into dst
// with the AES-NI kernel and returns how many bytes it encrypted: 0 when
// the CPU lacks AES-NI.
func (c *Cipher) encryptGroups(dst, src []byte, n int) int {
	if !hasAESNI {
		return 0
	}
	off := 0
	for ; off+4*BlockSize <= n; off += 4 * BlockSize {
		encrypt4(c.rounds, &c.rk[0], &dst[off], &src[off])
	}
	return off
}
