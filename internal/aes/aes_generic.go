//go:build !amd64 || purego

package aes

// encryptGroups has no kernel on this platform: every block goes through
// Encrypt.
func (c *Cipher) encryptGroups(dst, src []byte, n int) int { return 0 }
