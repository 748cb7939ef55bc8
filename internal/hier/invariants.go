package hier

import (
	"fmt"
	"sort"

	"silentshredder/internal/addr"
	"silentshredder/internal/cache"
)

// CheckInvariants validates the structural invariants of the coherent
// hierarchy over the given block addresses. It exists for tests and
// debugging: a correct run never violates any of
//
//  1. inclusion — a block valid in any private L1/L2 is also valid in the
//     shared L3, and a block valid in L3 is also valid in L4;
//  2. L1/L2 pairing — a block in a core's L1 is also in that core's L2;
//  3. directory coverage — every private copy is recorded in the
//     directory's sharer mask, and every recorded sharer holds a copy;
//  4. single owner — at most one core holds a block Modified or
//     Exclusive, and while one does, no other core holds any copy;
//  5. L4 residency — a block is valid in L4 exactly when its page's
//     directory record has the block's held bit set.
func (h *Hierarchy) CheckInvariants(blocks []addr.Phys) error {
	for _, a := range blocks {
		a = a.Block()
		inL3, inL4 := h.l3.Probe(a) != nil, h.l4.Probe(a) != nil
		if inL3 && !inL4 {
			return fmt.Errorf("hier: %v in L3 but not L4 (inclusion)", a)
		}
		var holders, owners uint8
		modifiedOwner := -1
		for c := 0; c < h.cfg.Cores; c++ {
			l1 := h.l1[c].Probe(a)
			l2 := h.l2[c].Probe(a)
			if l1 != nil && l2 == nil {
				return fmt.Errorf("hier: %v in L1.%d but not L2.%d", a, c, c)
			}
			if l1 != nil || l2 != nil {
				holders |= 1 << c
				if !inL3 {
					return fmt.Errorf("hier: %v in private caches of core %d but not L3 (inclusion)", a, c)
				}
			}
			for _, l := range []*cache.Way{l1, l2} {
				if l == nil {
					continue
				}
				switch l.State() {
				case cache.Modified:
					modifiedOwner = c
					owners |= 1 << c
				case cache.Exclusive:
					owners |= 1 << c
				}
			}
		}
		if owners != 0 && holders != owners || owners&(owners-1) != 0 {
			return fmt.Errorf("hier: %v owned (Modified or Exclusive) by mask %b but held by mask %b", a, owners, holders)
		}
		var sharers uint8
		modified, held := false, false
		if dp := h.dir.pages.Get(a.Page()); dp != nil {
			bit := uint64(1) << a.BlockIndex()
			sharers, modified, held = dp.sharers[a.BlockIndex()], dp.modified&bit != 0, dp.held&bit != 0
		}
		switch {
		case held != inL4:
			return fmt.Errorf("hier: %v in L4 = %v, but its directory held bit = %v", a, inL4, held)
		case sharers == 0 && holders != 0:
			return fmt.Errorf("hier: %v held by mask %b but absent from directory", a, holders)
		case sharers&^holders != 0:
			return fmt.Errorf("hier: %v directory sharers %b exceed actual holders %b", a, sharers, holders)
		case holders&^sharers != 0:
			return fmt.Errorf("hier: %v holders %b missing from directory %b", a, holders, sharers)
		case modified != (modifiedOwner >= 0) || modified && sharers != 1<<modifiedOwner:
			return fmt.Errorf("hier: %v directory Modified=%v with sharers %b, but Modified line in core %d", a, modified, sharers, modifiedOwner)
		}
	}
	return nil
}

// ResidentBlocks returns every block address currently valid in any cache
// level or tracked by the directory (a sharer mask or a held bit), sorted
// and deduplicated. It is the
// universe a machine-wide invariant sweep must cover: a block resident
// nowhere trivially satisfies every structural invariant.
func (h *Hierarchy) ResidentBlocks() []addr.Phys {
	seen := make(map[addr.Phys]bool)
	collect := func(c *cache.Cache) {
		c.ForEachLine(func(l cache.Line) { seen[l.Addr()] = true })
	}
	for c := 0; c < h.cfg.Cores; c++ {
		collect(h.l1[c])
		collect(h.l2[c])
	}
	collect(h.l3)
	collect(h.l4)
	h.dir.pages.ForEach(func(p addr.PageNum, dp *dirPage) {
		for bi, m := range dp.sharers {
			if m != 0 || dp.held&(1<<bi) != 0 {
				seen[p.BlockAddr(bi)] = true
			}
		}
	})
	out := make([]addr.Phys, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ResidentAny reports whether the block containing a is valid in any
// cache level. The counter-state sweep uses it: a block that is resident
// may legitimately hold architectural data newer than its NVM ciphertext.
func (h *Hierarchy) ResidentAny(a addr.Phys) bool {
	a = a.Block()
	for c := 0; c < h.cfg.Cores; c++ {
		if h.l1[c].Probe(a) != nil || h.l2[c].Probe(a) != nil {
			return true
		}
	}
	return h.l3.Probe(a) != nil || h.l4.Probe(a) != nil
}

// CheckAll runs CheckInvariants over every resident block, so it checks
// the held bits both ways: each set bit names an L4 line, and each L4
// line has its bit. It adds the directory-level structural rules that
// are not per-block: a sharer mask names only live cores, a Modified
// entry's mask is exactly its owner's bit (the layout derives the owner
// from it), no block without sharers is marked Modified (a lingering
// bit is a bookkeeping leak), and no cache holds a block twice (as a Fill
// of a present block would, unseen by the probes of CheckInvariants).
func (h *Hierarchy) CheckAll() error {
	blocks := h.ResidentBlocks()
	if err := h.CheckInvariants(blocks); err != nil {
		return err
	}
	var err error
	for _, c := range append(append([]*cache.Cache{h.l3, h.l4}, h.l1...), h.l2...) {
		held := make(map[uint64]bool)
		c.ForEachLine(func(l cache.Line) {
			if held[l.Tag] && err == nil {
				err = fmt.Errorf("hier: %v held twice in %s", l.Addr(), c.Config().Name)
			}
			held[l.Tag] = true
		})
	}
	h.dir.pages.ForEach(func(p addr.PageNum, dp *dirPage) {
		for bi, m := range dp.sharers {
			a := p.BlockAddr(bi)
			switch {
			case err != nil:
				return
			case m>>h.cfg.Cores != 0:
				err = fmt.Errorf("hier: %v directory sharers %b name a core beyond %d", a, m, h.cfg.Cores-1)
			case dp.modified&(1<<bi) == 0:
			case m == 0:
				err = fmt.Errorf("hier: %v directory marks a block with no sharers Modified (bookkeeping leak)", a)
			case m&(m-1) != 0:
				err = fmt.Errorf("hier: %v directory Modified with sharers %b, not one owner's bit", a, m)
			}
		}
	})
	return err
}
