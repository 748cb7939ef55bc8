// Package physmem holds the functional (plaintext) image of physical
// memory as seen from inside the processor chip.
//
// The simulator splits function from timing: caches and the memory
// controller model *when* data moves and in what form (the NVM device
// stores ciphertext), while this image is the architecturally visible
// contents that loads and stores operate on. The image is sparse —
// pages materialize on first write — and can be disabled entirely for
// timing-only experiments with very large footprints.
package physmem

import (
	"encoding/binary"

	"silentshredder/internal/addr"
)

// Image is a sparse plaintext memory image: a page table of 4KB pages,
// each materialized on first write.
type Image struct {
	enabled bool
	pages   addr.PageTable[*[addr.PageSize]byte]
}

// New creates an image. If store is false all operations are no-ops and
// reads return zeros; timing-only runs use that mode.
func New(store bool) *Image { return &Image{enabled: store} }

// Enabled reports whether the image stores data.
func (m *Image) Enabled() bool { return m.enabled }

// Read copies len(dst) bytes at physical address a into dst. Unwritten
// memory reads as zeros.
func (m *Image) Read(a addr.Phys, dst []byte) {
	if !m.enabled {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	for len(dst) > 0 {
		pg := m.pages.Get(a.Page())
		off := int(a.PageOffset())
		n := addr.PageSize - off
		if n > len(dst) {
			n = len(dst)
		}
		if pg != nil {
			copy(dst[:n], pg[off:off+n])
		} else {
			for i := 0; i < n; i++ {
				dst[i] = 0
			}
		}
		dst = dst[n:]
		a += addr.Phys(n)
	}
}

// Write copies src to physical address a, materializing pages as needed.
func (m *Image) Write(a addr.Phys, src []byte) {
	if !m.enabled {
		return
	}
	for len(src) > 0 {
		pg := m.pages.Get(a.Page())
		if pg == nil {
			pg = new([addr.PageSize]byte)
			m.pages.Set(a.Page(), pg)
		}
		off := int(a.PageOffset())
		n := addr.PageSize - off
		if n > len(src) {
			n = len(src)
		}
		copy(pg[off:off+n], src[:n])
		src = src[n:]
		a += addr.Phys(n)
	}
}

// ReadBlock returns the 64B block containing a.
func (m *Image) ReadBlock(a addr.Phys) [addr.BlockSize]byte {
	var out [addr.BlockSize]byte
	m.Read(a.Block(), out[:])
	return out
}

// ReadU64 reads a little-endian uint64 at a. It inlines into its
// callers, so a disabled image costs loads no call.
func (m *Image) ReadU64(a addr.Phys) uint64 {
	if !m.enabled {
		return 0
	}
	return m.readU64(a)
}

// readU64 reads a word inside one page in place, and one that crosses a
// page boundary through Read.
func (m *Image) readU64(a addr.Phys) uint64 {
	off := a.PageOffset()
	if off > addr.PageSize-8 {
		var b [8]byte
		m.Read(a, b[:])
		return binary.LittleEndian.Uint64(b[:])
	}
	if pg := m.pages.Get(a.Page()); pg != nil {
		return binary.LittleEndian.Uint64(pg[off : off+8])
	}
	return 0
}

// WriteU64 writes a little-endian uint64 at a. It inlines into its
// callers, so a disabled image costs stores no call.
func (m *Image) WriteU64(a addr.Phys, v uint64) {
	if m.enabled {
		m.writeU64(a, v)
	}
}

// writeU64 writes a word inside a materialized page in place, and any
// other through Write.
func (m *Image) writeU64(a addr.Phys, v uint64) {
	off := a.PageOffset()
	if pg := m.pages.Get(a.Page()); pg != nil && off <= addr.PageSize-8 {
		binary.LittleEndian.PutUint64(pg[off:off+8], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.Write(a, b[:])
}

// ZeroPage zeroes page p. Used by the kernel's zeroing strategies and by
// the Silent Shredder path to make the architectural contents of a
// shredded page read as zeros.
func (m *Image) ZeroPage(p addr.PageNum) {
	if !m.enabled {
		return
	}
	if pg := m.pages.Get(p); pg != nil {
		*pg = [addr.PageSize]byte{}
	}
	// An unmaterialized page already reads as zeros.
}

// Snapshot exports the image contents (checkpointing). Returns nil when
// the image is disabled.
func (m *Image) Snapshot() map[addr.PageNum][]byte {
	if !m.enabled {
		return nil
	}
	out := make(map[addr.PageNum][]byte)
	m.pages.ForEach(func(p addr.PageNum, data *[addr.PageSize]byte) {
		out[p] = append([]byte(nil), data[:]...)
	})
	return out
}

// Restore replaces the image contents. A nil snapshot clears the image.
func (m *Image) Restore(pages map[addr.PageNum][]byte) {
	m.pages.Reset()
	if !m.enabled {
		return
	}
	for p, data := range pages {
		pg := new([addr.PageSize]byte)
		copy(pg[:], data)
		m.pages.Set(p, pg)
	}
}

// ForEachPage calls fn for every materialized page in ascending page
// order (deterministic for scanning and reporting). The crash-recovery
// leak scan walks the recovered image this way.
func (m *Image) ForEachPage(fn func(p addr.PageNum, data *[addr.PageSize]byte)) {
	m.pages.ForEach(fn)
}
