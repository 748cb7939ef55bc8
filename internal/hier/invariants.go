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
//     shared L3 and L4;
//  2. L1/L2 pairing — a block in a core's L1 is also in that core's L2;
//  3. directory coverage — every private copy is recorded in the
//     directory's sharer mask, and every recorded sharer holds a copy;
//  4. single writer — at most one core holds a block in Modified state,
//     and while one does, no other core holds any copy.
func (h *Hierarchy) CheckInvariants(blocks []addr.Phys) error {
	for _, a := range blocks {
		a = a.Block()
		var holders uint64
		modifiedOwner := -1
		for c := 0; c < h.cfg.Cores; c++ {
			l1 := h.l1[c].Probe(a)
			l2 := h.l2[c].Probe(a)
			if l1 != nil && l2 == nil {
				return fmt.Errorf("hier: %v in L1.%d but not L2.%d", a, c, c)
			}
			if l1 != nil || l2 != nil {
				holders |= 1 << c
				if h.l3.Probe(a) == nil {
					return fmt.Errorf("hier: %v in private caches of core %d but not L3 (inclusion)", a, c)
				}
				if h.l4.Probe(a) == nil {
					return fmt.Errorf("hier: %v in private caches of core %d but not L4 (inclusion)", a, c)
				}
			}
			for _, l := range []*cache.Way{l1, l2} {
				if l != nil && l.State() == cache.Modified {
					if modifiedOwner >= 0 && modifiedOwner != c {
						return fmt.Errorf("hier: %v Modified in cores %d and %d", a, modifiedOwner, c)
					}
					modifiedOwner = c
				}
			}
		}
		if modifiedOwner >= 0 && holders&^(1<<modifiedOwner) != 0 {
			return fmt.Errorf("hier: %v Modified in core %d but shared by mask %b", a, modifiedOwner, holders)
		}
		if de := h.dir.lookup(a); de != nil {
			if de.sharers&^holders != 0 {
				return fmt.Errorf("hier: %v directory sharers %b exceed actual holders %b", a, de.sharers, holders)
			}
			if holders&^de.sharers != 0 {
				return fmt.Errorf("hier: %v holders %b missing from directory %b", a, holders, de.sharers)
			}
			if de.modified && de.owner != modifiedOwner {
				return fmt.Errorf("hier: %v directory owner %d but Modified line in %d", a, de.owner, modifiedOwner)
			}
		} else if holders != 0 {
			return fmt.Errorf("hier: %v held by mask %b but absent from directory", a, holders)
		}
	}
	return nil
}

// ResidentBlocks returns every block address currently valid in any cache
// level or tracked by the directory, sorted and deduplicated. It is the
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
	h.dir.forEach(func(a addr.Phys, _ *dirEntry) { seen[a] = true })
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

// CheckAll runs CheckInvariants over every resident block plus the
// directory-level structural rules that are not per-block: a directory
// entry claiming a modified owner must name a live core, and every
// directory entry must track at least one sharer (empty entries are
// deleted eagerly; a lingering one indicates a bookkeeping leak).
func (h *Hierarchy) CheckAll() error {
	blocks := h.ResidentBlocks()
	if err := h.CheckInvariants(blocks); err != nil {
		return err
	}
	var err error
	h.dir.forEach(func(a addr.Phys, de *dirEntry) {
		if err != nil {
			return
		}
		if de.modified {
			if de.owner < 0 || de.owner >= h.cfg.Cores {
				err = fmt.Errorf("hier: %v directory modified with invalid owner %d", a, de.owner)
				return
			}
			if de.sharers&(1<<de.owner) == 0 {
				err = fmt.Errorf("hier: %v directory owner %d not in sharer mask %b", a, de.owner, de.sharers)
				return
			}
		}
		if de.sharers == 0 {
			err = fmt.Errorf("hier: %v directory entry with no sharers (bookkeeping leak)", a)
		}
	})
	return err
}
