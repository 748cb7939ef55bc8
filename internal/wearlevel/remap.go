// Package wearlevel implements line retirement, the graceful-degradation
// path for worn NVM lines.
//
// Retirement is what happens when a line fails. The controller keeps a
// small remap table (real PCM DIMMs provision a spare region exactly for
// this) that redirects a retired line's traffic to a spare physical
// line, so a workload keeps running with degraded spare capacity instead
// of aborting on the first uncorrectable error.
package wearlevel

import (
	"fmt"
	"sort"

	"silentshredder/internal/addr"
)

// SpareBase is the base physical address of the spare-line region.
// It sits above every address the page allocator hands out but below the
// counter region (1<<46), so spare traffic is distinguishable in the
// device statistics and never collides with data or counter lines.
const SpareBase addr.Phys = 1 << 45

// DefaultSpareLines is the spare-region capacity (lines). 4096
// spare 64B lines is 256KB — in the ballpark of real DIMM spare
// provisioning, and far more than any simulated workload should consume
// unless its fault rates are apocalyptic.
const DefaultSpareLines = 4096

// Remap is the line-retirement table: a logical→spare indirection applied
// at the device boundary. Logical addresses (what the rest of the
// controller, the counters, and the integrity tree see) never change; only
// where the bits physically live does. A spare line that itself fails can
// be retired again — the logical line is simply re-pointed at the next
// spare, so the table never chains.
type Remap struct {
	fwd  map[addr.Phys]addr.Phys // logical line -> spare line
	next addr.Phys               // next unassigned spare line
	cap  int
}

// NewRemap creates a retirement table with the given spare capacity in
// lines.
func NewRemap(spareLines int) *Remap {
	return &Remap{
		fwd:  make(map[addr.Phys]addr.Phys),
		next: SpareBase,
		cap:  spareLines,
	}
}

// Resolve translates a logical block address to the physical line
// currently backing it (identity for healthy lines).
func (r *Remap) Resolve(a addr.Phys) addr.Phys {
	if s, ok := r.fwd[a.Block()]; ok {
		return s
	}
	return a
}

// Retire maps logical line a to a fresh spare line and returns it. If a
// was already remapped (its spare failed too), it is re-pointed at the
// next spare. Returns an error when the spare region is exhausted — the
// device has reached end of life and the caller decides whether that is
// fatal.
func (r *Remap) Retire(a addr.Phys) (addr.Phys, error) {
	a = a.Block()
	if r.Len() >= r.cap {
		return 0, fmt.Errorf("wearlevel: spare region exhausted (%d lines retired); device end of life", r.Len())
	}
	s := r.next
	r.next += addr.BlockSize
	r.fwd[a] = s
	return s, nil
}

// Len returns the number of lines currently remapped.
func (r *Remap) Len() int { return len(r.fwd) }

// ForEach calls fn for every remapped line in ascending logical-address
// order (deterministic for recovery and reporting).
func (r *Remap) ForEach(fn func(logical, spare addr.Phys)) {
	ls := make([]addr.Phys, 0, len(r.fwd))
	for l := range r.fwd {
		ls = append(ls, l)
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	for _, l := range ls {
		fn(l, r.fwd[l])
	}
}
