// Package mmu models virtual memory translation: per-process page tables
// and a TLB, which keeps its entries in a cache.Cache tag store. The OS
// kernel (internal/kernel) owns the mappings; the MMU provides the
// lookup mechanics and translation timing.
//
// Two details matter to the paper's workloads:
//
//   - the Linux-style copy-on-write Zero Page: a freshly allocated virtual
//     page is first mapped read-only to a single shared physical page of
//     zeros, and only a write fault allocates (and shreds) a real page;
//   - translation cost: page-table walks consume cycles, which is part of
//     why kernels and hypervisors prefer large allocations (§1).
package mmu

import (
	"fmt"

	"silentshredder/internal/addr"
	"silentshredder/internal/cache"
	"silentshredder/internal/clock"
	"silentshredder/internal/stats"
)

// PTE is a page-table entry.
type PTE struct {
	PPN      addr.PageNum
	Present  bool
	Writable bool
	// ZeroPage marks a read-only mapping to the shared zero page; a
	// write triggers the COW fault that allocates a real page.
	ZeroPage bool
}

// ptChunkShift sizes the leaf tables of the two-level page table: 512
// entries per chunk, mirroring one hardware page-table page of 8-byte
// PTEs. Workload access patterns are page-local, so a one-chunk cache
// in front of the chunk map turns almost every Lookup into an array
// index instead of a map access.
const (
	ptChunkShift = 9
	ptChunkSize  = 1 << ptChunkShift
	ptChunkMask  = ptChunkSize - 1
)

type ptChunk struct {
	e    [ptChunkSize]PTE
	used int // entries with Present set
}

// AddressSpace is one process's page table, stored as a two-level
// structure: VPN>>9 selects a 512-entry chunk, the low 9 bits index it.
// Entry existence is tracked by PTE.Present (Map always sets it).
type AddressSpace struct {
	ID     int
	chunks map[uint64]*ptChunk
	lastK  uint64
	last   *ptChunk // one-chunk lookup cache; nil when empty
}

// NewAddressSpace creates an empty address space with the given ASID.
// It panics on an ASID that does not fit a TLB key.
func NewAddressSpace(id int) *AddressSpace {
	if uint64(id) >= 1<<asidBits {
		panic(fmt.Sprintf("mmu: ASID %d does not fit in %d bits", id, asidBits))
	}
	return &AddressSpace{ID: id, chunks: make(map[uint64]*ptChunk)}
}

func (as *AddressSpace) chunk(vpn addr.VPageNum) *ptChunk {
	k := uint64(vpn) >> ptChunkShift
	if as.last != nil && as.lastK == k {
		return as.last
	}
	c := as.chunks[k]
	if c != nil {
		as.lastK, as.last = k, c
	}
	return c
}

// Map installs a translation. It panics on a VPN that does not fit a
// TLB key.
func (as *AddressSpace) Map(vpn addr.VPageNum, pte PTE) {
	if vpn >= 1<<vpnBits {
		panic(fmt.Sprintf("mmu: %v does not fit in %d bits", vpn, vpnBits))
	}
	pte.Present = true
	c := as.chunk(vpn)
	if c == nil {
		k := uint64(vpn) >> ptChunkShift
		c = &ptChunk{}
		as.chunks[k] = c
		as.lastK, as.last = k, c
	}
	e := &c.e[uint64(vpn)&ptChunkMask]
	if !e.Present {
		c.used++
	}
	*e = pte
}

// Unmap removes a translation, returning the old entry.
func (as *AddressSpace) Unmap(vpn addr.VPageNum) (PTE, bool) {
	c := as.chunk(vpn)
	if c == nil {
		return PTE{}, false
	}
	e := &c.e[uint64(vpn)&ptChunkMask]
	if !e.Present {
		return PTE{}, false
	}
	old := *e
	*e = PTE{}
	c.used--
	if c.used == 0 {
		delete(as.chunks, uint64(vpn)>>ptChunkShift)
		if as.last == c {
			as.last = nil
		}
	}
	return old, true
}

// Lookup returns the entry for vpn.
func (as *AddressSpace) Lookup(vpn addr.VPageNum) (PTE, bool) {
	c := as.chunk(vpn)
	if c == nil {
		return PTE{}, false
	}
	pte := c.e[uint64(vpn)&ptChunkMask]
	return pte, pte.Present
}

// TLB geometry and timing: 64 entries, 4 ways, a 1-cycle hit and a
// 100-cycle walk (a 4-level walk mostly hitting on-chip caches).
const (
	tlbEntries = 64
	tlbAssoc   = 4

	TLBHitLatency  clock.Cycles = 1
	TLBWalkLatency clock.Cycles = 100 // page-table walk cost on a miss
)

// A TLB entry is a block of a cache.Cache whose tag is the packed key
// (ASID, VPN): the VPN in the low vpnBits bits, so the set index is the
// VPN's low bits, and the ASID in the asidBits above them. The 57 bits
// keep every key below the tag store's all-ones empty-way tag (58
// bits). NewAddressSpace rejects an ASID and Map a VPN that does not
// fit, so every key the kernel fills is in range.
const (
	vpnBits  = 36 // a 48-bit virtual address space
	asidBits = 21
)

// VirtLimit is the first virtual address past the space Map accepts.
const VirtLimit = addr.Virt(1) << (vpnBits + addr.PageShift)

// key returns the block address whose tag is (asid, vpn)'s packed key.
func key(asid int, vpn addr.VPageNum) addr.Phys {
	return addr.Phys(uint64(asid)<<vpnBits|uint64(vpn)) << addr.BlockShift
}

// TLB is a set-associative translation cache keyed by (ASID, VPN), so
// context switches need no flush. Its tag store's victim rule, the
// first empty way or else the least recently used, is the TLB's.
type TLB struct {
	tags *cache.Cache
}

// NewTLB creates an empty TLB.
func NewTLB() *TLB {
	return &TLB{tags: cache.New(cache.Config{Name: "tlb", Size: tlbEntries * addr.BlockSize, Assoc: tlbAssoc})}
}

// Access models a translation attempt: it returns the translation latency
// and whether the entry was resident. On a miss the caller performs the
// walk through the page table and should Fill the TLB.
func (t *TLB) Access(asid int, vpn addr.VPageNum) (clock.Cycles, bool) {
	if t.tags.LookupHit(key(asid, vpn)) {
		return TLBHitLatency, true
	}
	return TLBHitLatency + TLBWalkLatency, false
}

// Fill installs a translation the TLB does not hold, after a walk.
func (t *TLB) Fill(asid int, vpn addr.VPageNum) {
	t.tags.Fill(key(asid, vpn), cache.Shared, false)
}

// Invalidate removes one translation (e.g. after unmap or permission
// change — the COW zero-page upgrade needs this).
func (t *TLB) Invalidate(asid int, vpn addr.VPageNum) {
	t.tags.Invalidate(key(asid, vpn))
}

// FlushASID drops all translations of one address space (process exit).
func (t *TLB) FlushASID(asid int) {
	t.tags.ForEachLine(func(l cache.Line) {
		if l.Tag>>vpnBits == uint64(asid) {
			t.tags.Invalidate(l.Addr())
		}
	})
}

// StatsSet exposes TLB statistics under the given name.
func (t *TLB) StatsSet(name string) *stats.Set {
	s := stats.NewSet(name)
	s.RegisterFunc("hits", func() float64 { return float64(t.tags.Hits()) })
	s.RegisterFunc("misses", func() float64 { return float64(t.tags.Misses()) })
	s.RegisterFunc("miss_rate", t.tags.MissRate)
	return s
}
