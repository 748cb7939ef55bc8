package cache

import "silentshredder/internal/addr"

// pageShift converts a block tag to its page number.
const pageShift = addr.PageShift - addr.BlockShift

// BlockSet is a set of block addresses kept as one 64-bit mask per
// page: bit i of page p's mask stands for block i of p. The masks live
// in a page table, so data pages index a slice and the counter cache's
// tags, at RegionBase (2^46), go to its map. The zero value is an empty
// set.
type BlockSet struct {
	pages addr.PageTable[uint64]
}

// Add inserts block a, reporting whether it was absent.
func (s *BlockSet) Add(a addr.Phys) bool {
	tag := tagOf(a)
	if s.pages.Get(pageOf(tag))&blockBit(tag) != 0 {
		return false
	}
	if !s.addHeld(tag) {
		s.add(tag)
	}
	return true
}

func blockBit(tag uint64) uint64 { return 1 << (tag & (addr.BlocksPerPage - 1)) }

func pageOf(tag uint64) addr.PageNum { return addr.PageNum(tag >> pageShift) }

// addHeld inserts the block with the given tag if the table already has
// a slot for its page, reporting whether it did. It is small enough to
// inline, so the common case costs no call; add handles the rest.
func (s *BlockSet) addHeld(tag uint64) bool {
	if m := s.pages.Ptr(pageOf(tag)); m != nil {
		*m |= blockBit(tag)
		return true
	}
	return false
}

// add inserts the block with the given tag into a page without a slot.
func (s *BlockSet) add(tag uint64) { s.pages.Set(pageOf(tag), blockBit(tag)) }

// remove deletes the block with the given tag.
func (s *BlockSet) remove(tag uint64) {
	if m := s.pages.Ptr(pageOf(tag)); m != nil {
		*m &^= blockBit(tag)
	}
}

// takePage empties page p's mask and returns what it held.
func (s *BlockSet) takePage(p addr.PageNum) uint64 {
	m := s.pages.Ptr(p)
	if m == nil {
		return 0
	}
	v := *m
	*m = 0
	return v
}

// reset empties the set, keeping its storage.
func (s *BlockSet) reset() { s.pages.Reset() }
