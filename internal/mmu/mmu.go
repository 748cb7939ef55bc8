// Package mmu models virtual memory translation: per-process page tables
// and a TLB. The OS kernel (internal/kernel) owns the mappings; the MMU
// provides the lookup mechanics and translation timing.
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
func NewAddressSpace(id int) *AddressSpace {
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

// Map installs a translation.
func (as *AddressSpace) Map(vpn addr.VPageNum, pte PTE) {
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

// TLBConfig describes a TLB.
type TLBConfig struct {
	Entries     int
	Assoc       int
	HitLatency  clock.Cycles
	WalkLatency clock.Cycles // page-table walk cost on a miss
}

// DefaultTLBConfig returns a 64-entry 4-way TLB with a 1-cycle hit and a
// 100-cycle walk (a 4-level walk mostly hitting on-chip caches).
func DefaultTLBConfig() TLBConfig {
	return TLBConfig{Entries: 64, Assoc: 4, HitLatency: 1, WalkLatency: 100}
}

type tlbEntry struct {
	asid  int
	vpn   addr.VPageNum
	valid bool
	lru   uint64
}

// TLB is a set-associative translation cache keyed by (ASID, VPN), so
// context switches need no flush.
type TLB struct {
	cfg     TLBConfig
	sets    [][]tlbEntry
	setMask uint64
	clock   uint64

	hits, misses stats.Counter
}

// NewTLB creates a TLB. Entries/Assoc must give a power-of-two set count.
func NewTLB(cfg TLBConfig) *TLB {
	if cfg.Assoc <= 0 || cfg.Entries <= 0 || cfg.Entries%cfg.Assoc != 0 {
		panic(fmt.Sprintf("mmu: invalid TLB geometry %+v", cfg))
	}
	nsets := cfg.Entries / cfg.Assoc
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("mmu: TLB set count %d not a power of two", nsets))
	}
	sets := make([][]tlbEntry, nsets)
	backing := make([]tlbEntry, nsets*cfg.Assoc)
	for i := range sets {
		sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return &TLB{cfg: cfg, sets: sets, setMask: uint64(nsets - 1)}
}

func (t *TLB) set(vpn addr.VPageNum) []tlbEntry {
	return t.sets[uint64(vpn)&t.setMask]
}

// Access models a translation attempt: it returns the translation latency
// and whether the entry was resident. On a miss the caller performs the
// walk through the page table and should Fill the TLB.
func (t *TLB) Access(asid int, vpn addr.VPageNum) (clock.Cycles, bool) {
	set := t.set(vpn)
	for i := range set {
		if set[i].valid && set[i].asid == asid && set[i].vpn == vpn {
			t.hits.Inc()
			t.clock++
			set[i].lru = t.clock
			return t.cfg.HitLatency, true
		}
	}
	t.misses.Inc()
	return t.cfg.HitLatency + t.cfg.WalkLatency, false
}

// Fill installs a translation after a walk.
func (t *TLB) Fill(asid int, vpn addr.VPageNum) {
	set := t.set(vpn)
	vi := 0
	for i := range set {
		if !set[i].valid {
			vi = i
			break
		}
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	t.clock++
	set[vi] = tlbEntry{asid: asid, vpn: vpn, valid: true, lru: t.clock}
}

// Invalidate removes one translation (e.g. after unmap or permission
// change — the COW zero-page upgrade needs this).
func (t *TLB) Invalidate(asid int, vpn addr.VPageNum) {
	set := t.set(vpn)
	for i := range set {
		if set[i].valid && set[i].asid == asid && set[i].vpn == vpn {
			set[i].valid = false
		}
	}
}

// FlushASID drops all translations of one address space (process exit).
func (t *TLB) FlushASID(asid int) {
	for _, set := range t.sets {
		for i := range set {
			if set[i].asid == asid {
				set[i].valid = false
			}
		}
	}
}

// MissRate returns the miss ratio.
func (t *TLB) MissRate() float64 {
	tot := t.hits.Value() + t.misses.Value()
	if tot == 0 {
		return 0
	}
	return float64(t.misses.Value()) / float64(tot)
}

// StatsSet exposes TLB statistics under the given name.
func (t *TLB) StatsSet(name string) *stats.Set {
	s := stats.NewSet(name)
	s.RegisterCounter("hits", &t.hits)
	s.RegisterCounter("misses", &t.misses)
	s.RegisterFunc("miss_rate", t.MissRate)
	return s
}
