package cache

import "silentshredder/internal/addr"

// densePages bounds the slice-indexed part of a BlockSet. Frame
// allocators hand out small page numbers from zero, so every data page
// falls below it; the counter cache's tags sit at RegionBase (2^46),
// whose pages go to the map. It is the bound the hierarchy's coherence
// directory uses for the same reason.
const densePages = 1 << 22 // 16GB of 4KB pages

// pageShift converts a block tag to its page number.
const pageShift = addr.PageShift - addr.BlockShift

// BlockSet is a set of block addresses kept as one 64-bit mask per
// page: bit i of page p's mask stands for block i of p. Page numbers
// below densePages index a slice grown by doubling to the largest page
// seen; higher pages live in a map that holds only non-empty masks. The
// zero value is an empty set.
type BlockSet struct {
	dense  []uint64
	sparse map[addr.PageNum]uint64
}

// Add inserts block a, reporting whether it was absent.
func (s *BlockSet) Add(a addr.Phys) bool {
	tag := tagOf(a)
	if s.page(tag>>pageShift)&blockBit(tag) != 0 {
		return false
	}
	if !s.addDense(tag) {
		s.add(tag)
	}
	return true
}

func blockBit(tag uint64) uint64 { return 1 << (tag & (addr.BlocksPerPage - 1)) }

// page returns page p's mask.
func (s *BlockSet) page(p uint64) uint64 {
	if p < uint64(len(s.dense)) {
		return s.dense[p]
	}
	if p < densePages {
		return 0
	}
	return s.sparse[addr.PageNum(p)]
}

// addDense inserts the block with the given tag if the slice covers its
// page, reporting whether it did. It is small enough to inline, so the
// common case costs no call; add handles the rest.
func (s *BlockSet) addDense(tag uint64) bool {
	p := tag >> pageShift
	if p < uint64(len(s.dense)) {
		s.dense[p] |= blockBit(tag)
		return true
	}
	return false
}

// add inserts the block with the given tag.
func (s *BlockSet) add(tag uint64) {
	p := tag >> pageShift
	if p < densePages {
		n := max(2*len(s.dense), addr.BlocksPerPage)
		for uint64(n) <= p {
			n *= 2
		}
		s.dense = append(s.dense, make([]uint64, n-len(s.dense))...)
		s.dense[p] |= blockBit(tag)
		return
	}
	if s.sparse == nil {
		s.sparse = make(map[addr.PageNum]uint64)
	}
	s.sparse[addr.PageNum(p)] |= blockBit(tag)
}

// remove deletes the block with the given tag.
func (s *BlockSet) remove(tag uint64) {
	p := tag >> pageShift
	if p < uint64(len(s.dense)) {
		s.dense[p] &^= blockBit(tag)
		return
	}
	if p < densePages {
		return
	}
	if m := s.sparse[addr.PageNum(p)] &^ blockBit(tag); m != 0 {
		s.sparse[addr.PageNum(p)] = m
	} else {
		delete(s.sparse, addr.PageNum(p))
	}
}

// takePage empties page p's mask and returns what it held.
func (s *BlockSet) takePage(p uint64) uint64 {
	if p < uint64(len(s.dense)) {
		m := s.dense[p]
		s.dense[p] = 0
		return m
	}
	if p < densePages {
		return 0
	}
	m := s.sparse[addr.PageNum(p)]
	if m != 0 {
		delete(s.sparse, addr.PageNum(p))
	}
	return m
}

// reset empties the set, keeping its storage.
func (s *BlockSet) reset() {
	clear(s.dense)
	clear(s.sparse)
}
