// Package addr defines the physical and virtual address types and the
// page/block geometry shared by every component of the simulator.
//
// The geometry matches the paper's configuration: 64-byte cache blocks and
// 4KB pages, so a page holds exactly 64 blocks — which is what lets a page's
// counter block (one 64-bit major counter plus 64 seven-bit minor counters)
// fit in a single 64-byte cache line.
package addr

import "fmt"

// Geometry constants. These are fixed by the paper's design (§2.2): a 4KB
// page with 64B blocks yields 64 blocks per page, and the counter block
// layout (64-bit major + 64×7-bit minors = 64 bytes) depends on it.
const (
	BlockSize     = 64   // bytes per cache block
	PageSize      = 4096 // bytes per page
	BlocksPerPage = PageSize / BlockSize

	BlockShift = 6  // log2(BlockSize)
	PageShift  = 12 // log2(PageSize)
)

// Phys is a physical (machine) byte address.
type Phys uint64

// Virt is a virtual byte address within some address space.
type Virt uint64

// PageNum identifies a physical page (Phys >> PageShift).
type PageNum uint64

// VPageNum identifies a virtual page (Virt >> PageShift).
type VPageNum uint64

// Page returns the physical page number containing a.
func (a Phys) Page() PageNum { return PageNum(a >> PageShift) }

// Block returns the address of the 64B-aligned block containing a.
func (a Phys) Block() Phys { return a &^ (BlockSize - 1) }

// BlockIndex returns the index (0..63) of a's block within its page.
func (a Phys) BlockIndex() int { return int(a>>BlockShift) & (BlocksPerPage - 1) }

// PageOffset returns the byte offset of a within its page.
func (a Phys) PageOffset() uint64 { return uint64(a) & (PageSize - 1) }

// BlockOffset returns the byte offset of a within its block.
func (a Phys) BlockOffset() uint64 { return uint64(a) & (BlockSize - 1) }

func (a Phys) String() string { return fmt.Sprintf("pa:%#x", uint64(a)) }

// Page returns the virtual page number containing v.
func (v Virt) Page() VPageNum { return VPageNum(v >> PageShift) }

// Block returns the address of the 64B-aligned block containing v.
func (v Virt) Block() Virt { return v &^ (BlockSize - 1) }

// PageOffset returns the byte offset of v within its page.
func (v Virt) PageOffset() uint64 { return uint64(v) & (PageSize - 1) }

func (v Virt) String() string { return fmt.Sprintf("va:%#x", uint64(v)) }

// Addr returns the base physical address of page p.
func (p PageNum) Addr() Phys { return Phys(p) << PageShift }

// BlockAddr returns the physical address of block i (0..63) within page p.
func (p PageNum) BlockAddr(i int) Phys { return p.Addr() + Phys(i)<<BlockShift }

func (p PageNum) String() string { return fmt.Sprintf("ppn:%#x", uint64(p)) }

// Addr returns the base virtual address of page v.
func (v VPageNum) Addr() Virt { return Virt(v) << PageShift }

func (v VPageNum) String() string { return fmt.Sprintf("vpn:%#x", uint64(v)) }

// BlockRange calls fn for every 64B-aligned block address overlapping
// [a, a+size). fn receives the block address, the offset within the block
// where the range starts, and the number of bytes of the range inside that
// block.
func BlockRange(a Virt, size int, fn func(block Virt, off, n int)) {
	for size > 0 {
		blk := a.Block()
		off := int(a - blk)
		n := BlockSize - off
		if n > size {
			n = size
		}
		fn(blk, off, n)
		a += Virt(n)
		size -= n
	}
}
