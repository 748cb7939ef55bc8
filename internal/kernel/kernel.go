// Package kernel is the miniature operating system of the simulator: a
// physical page allocator, per-process address spaces with Linux-style
// copy-on-write zero-page mapping, the page-fault path, and — the part the
// paper is about — the data-shredding strategies used when a physical page
// is (re)allocated to a process:
//
//   - ZeroTemporal: zero through the cache hierarchy with ordinary stores
//     (pollutes caches, write-allocates 64 blocks per page; §2.3).
//   - ZeroNonTemporal: movntq-style stores that bypass the caches and
//     write 64 encrypted zero blocks straight to NVM — the paper's
//     baseline shredding.
//   - ZeroShred: Silent Shredder's MMIO shred command — invalidate the
//     page's cached blocks and flip its encryption counters; zero NVM
//     writes (Figure 6).
//   - ZeroNone: no shredding at all. Insecure; exists so tests can
//     demonstrate the inter-process data leak shredding prevents, and for
//     the motivation experiment's "no zeroing" bar (Figure 5).
package kernel

import (
	"fmt"
	"sort"

	"silentshredder/internal/addr"
	"silentshredder/internal/clock"
	"silentshredder/internal/hier"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/mmu"
	"silentshredder/internal/obs"
	"silentshredder/internal/span"
	"silentshredder/internal/stats"
)

// ZeroMode selects the kernel's shredding strategy.
type ZeroMode int

const (
	ZeroTemporal ZeroMode = iota
	ZeroNonTemporal
	ZeroShred
	ZeroNone
)

func (m ZeroMode) String() string {
	switch m {
	case ZeroTemporal:
		return "temporal"
	case ZeroNonTemporal:
		return "non-temporal"
	case ZeroShred:
		return "shred"
	case ZeroNone:
		return "none"
	default:
		return "unknown"
	}
}

// Kernel costs, in core cycles.
const (
	// FaultOverhead is the fixed page-fault handling cost (trap, vma
	// lookup, allocator bookkeeping) excluding zeroing: ~350ns.
	FaultOverhead clock.Cycles = 700

	// ShredOverhead is the cost of the shred command itself: the MMIO
	// register write plus waiting for the invalidation/counter-update
	// acknowledgement (Figure 6 steps 1,4,5).
	ShredOverhead clock.Cycles = 60

	// InvalMsgCost is charged per invalidation message a shred or
	// non-temporal zeroing causes in the cache hierarchy.
	InvalMsgCost clock.Cycles = 4
)

// PageSource supplies physical pages. The default is a linear range with
// a LIFO free list (maximizing reuse, hence shredding); the hypervisor
// package provides a source that models per-VM allocation with its own
// shredding layer.
type PageSource interface {
	AllocPage() (addr.PageNum, bool)
	FreePage(p addr.PageNum)
}

// LinearSource allocates pages from [base, base+count) with a LIFO free
// list so freed pages are reused immediately.
type LinearSource struct {
	next, limit addr.PageNum
	free        []addr.PageNum
}

// NewLinearSource creates a source covering count pages starting at base.
func NewLinearSource(base addr.PageNum, count int) *LinearSource {
	return &LinearSource{next: base, limit: base + addr.PageNum(count)}
}

// AllocPage pops the free list or extends the linear range.
func (s *LinearSource) AllocPage() (addr.PageNum, bool) {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		return p, true
	}
	if s.next >= s.limit {
		return 0, false
	}
	p := s.next
	s.next++
	return p, true
}

// FreePage returns a page to the free list.
func (s *LinearSource) FreePage(p addr.PageNum) { s.free = append(s.free, p) }

// Process is one running process.
type Process struct {
	PID   int
	AS    *mmu.AddressSpace
	next  addr.Virt // mmap cursor
	pages map[addr.VPageNum]addr.PageNum
}

// Kernel is the simulated operating system.
type Kernel struct {
	mode ZeroMode
	h    *hier.Hierarchy
	mc   *memctrl.Controller
	src  PageSource
	tlbs []*mmu.TLB // per core

	zeroPPN  addr.PageNum // the shared read-only Zero Page
	procs    map[int]*Process
	nextPID  int
	nextASID int

	persistent       map[string]*persistentRegion // live registry
	persistedJournal map[string]*persistentRegion // committed to NVM

	// retired marks physical pages withdrawn from circulation because the
	// underlying NVM lines degraded past the controller's threshold. A
	// retired page is never handed out again; if it is mapped when retired,
	// the mapping stays (the controller's line remapping keeps it usable)
	// but the frame is dropped on the way back through the allocator.
	retired map[addr.PageNum]bool

	pageFaults     stats.Counter
	cowFaults      stats.Counter
	pagesCleared   stats.Counter // pages shredded/zeroed at allocation
	ntZeroWrites   stats.Counter // NVM writes issued by non-temporal zeroing
	zeroCycles     stats.Counter // core cycles spent clearing pages
	faultCycles    stats.Counter // total page-fault cycles including clearing
	oomEvents      stats.Counter
	journalCommits stats.Counter
	pagesRetired   stats.Counter

	bus *obs.Bus // nil unless observability is enabled
}

// SetBus attaches the observability event bus (nil disables).
func (k *Kernel) SetBus(b *obs.Bus) { k.bus = b }

// New creates a kernel that clears pages with the given strategy,
// managing the given hierarchy with pages from src. The first page from
// src becomes the shared Zero Page.
func New(mode ZeroMode, h *hier.Hierarchy, src PageSource) (*Kernel, error) {
	if mode == ZeroShred && h.Controller().Mode() != memctrl.SilentShredder {
		return nil, fmt.Errorf("kernel: shred zeroing requires a Silent Shredder memory controller")
	}
	zp, ok := src.AllocPage()
	if !ok {
		return nil, fmt.Errorf("kernel: page source empty")
	}
	k := &Kernel{
		mode:             mode,
		h:                h,
		mc:               h.Controller(),
		src:              src,
		zeroPPN:          zp,
		procs:            make(map[int]*Process),
		persistent:       make(map[string]*persistentRegion),
		persistedJournal: make(map[string]*persistentRegion),
		retired:          make(map[addr.PageNum]bool),
		nextPID:          1,
	}
	for i := 0; i < h.Config().Cores; i++ {
		k.tlbs = append(k.tlbs, mmu.NewTLB())
	}
	return k, nil
}

// Hierarchy returns the cache hierarchy the kernel drives.
func (k *Kernel) Hierarchy() *hier.Hierarchy { return k.h }

// Controller returns the memory controller.
func (k *Kernel) Controller() *memctrl.Controller { return k.mc }

// TLB returns core i's TLB.
func (k *Kernel) TLB(i int) *mmu.TLB { return k.tlbs[i] }

// NewProcess creates a process with an empty address space.
func (k *Kernel) NewProcess() *Process {
	p := &Process{
		PID:   k.nextPID,
		AS:    mmu.NewAddressSpace(k.nextASID),
		next:  0x1000_0000, // leave page 0 unmapped
		pages: make(map[addr.VPageNum]addr.PageNum),
	}
	k.nextPID++
	k.nextASID++
	k.procs[p.PID] = p
	return p
}

// ExitProcess tears a process down: its physical pages return to the free
// pool *without* being cleared — clearing happens when they are
// reallocated, which is exactly when the shredding strategy runs. Pages
// are freed in ascending physical order: the pages map would otherwise be
// walked in Go's randomized map order, making the LIFO free list — and
// therefore every subsequent allocation, cache index and NVM bank access
// — differ from run to run, which the deterministic-replay and
// differential harnesses cannot tolerate.
func (k *Kernel) ExitProcess(p *Process) {
	ppns := make([]addr.PageNum, 0, len(p.pages))
	for _, ppn := range p.pages {
		ppns = append(ppns, ppn)
	}
	sort.Slice(ppns, func(i, j int) bool { return ppns[i] < ppns[j] })
	for _, ppn := range ppns {
		k.src.FreePage(ppn)
	}
	p.pages = nil
	for _, tlb := range k.tlbs {
		tlb.FlushASID(p.AS.ID)
	}
	delete(k.procs, p.PID)
}

// Mmap reserves n pages of virtual address space and returns the base
// address. No physical memory is allocated: reads hit the shared Zero
// Page, the first write to each page faults in (and shreds) a physical
// page.
func (k *Kernel) Mmap(p *Process, npages int) addr.Virt {
	base := p.next
	p.next += addr.Virt(npages) * addr.PageSize
	return base
}

// Translate resolves va for a load (write=false) or store (write=true)
// issued on the given core, handling TLB access and any page fault. It
// returns the physical address and the kernel/translation cycles the
// access cost on top of the cache access itself.
func (k *Kernel) Translate(core int, p *Process, va addr.Virt, write bool) (addr.Phys, clock.Cycles) {
	vpn := va.Page()
	tlbLat, hit := k.tlbs[core].Access(p.AS.ID, vpn)
	lat := tlbLat

	pte, mapped := p.AS.Lookup(vpn)
	switch {
	case mapped && (!write || pte.Writable):
		// Plain translation.
		if !hit {
			k.tlbs[core].Fill(p.AS.ID, vpn)
		}
	case write:
		// Write to an unmapped or zero-page-mapped page: allocate and
		// clear a physical page (the COW break / first-touch fault).
		if mapped && pte.ZeroPage {
			k.cowFaults.Inc()
			k.bus.Emit(obs.EvCoWFault, uint64(va), 0)
		}
		lat += k.fault(core, p, vpn)
		pte, _ = p.AS.Lookup(vpn)
		k.tlbs[core].Invalidate(p.AS.ID, vpn)
		k.tlbs[core].Fill(p.AS.ID, vpn)
	default:
		// Read of an untouched page: map the shared Zero Page read-only.
		pte = mmu.PTE{PPN: k.zeroPPN, ZeroPage: true}
		p.AS.Map(vpn, pte)
		k.tlbs[core].Fill(p.AS.ID, vpn)
	}
	return pte.PPN.Addr() + addr.Phys(va.PageOffset()), lat
}

// allocPage draws a physical page from the source, silently discarding
// retired frames. A retired frame that reaches the free list is dropped
// here — the analogue of Linux's soft-offlining removing a page from the
// buddy allocator. Healthy callers never see a retired page.
func (k *Kernel) allocPage() (addr.PageNum, bool) {
	ppn, ok := k.src.AllocPage()
	for ok && k.retired[ppn] {
		ppn, ok = k.src.AllocPage()
	}
	return ppn, ok
}

// RetirePage withdraws physical page ppn from circulation: it will never
// be handed out by a future allocation. If the page is currently mapped
// the mapping stays usable (the memory controller's line remapping backs
// the failed lines with spares); the frame simply never re-enters the
// pool. Retiring the shared Zero Page is refused — it is read-only and
// immortal.
func (k *Kernel) RetirePage(ppn addr.PageNum) {
	if ppn == k.zeroPPN || k.retired[ppn] {
		return
	}
	k.retired[ppn] = true
	k.pagesRetired.Inc()
}

// PageDegraded implements memctrl.FaultSink: the controller reports that
// page p has lost linesLost lines to retirement, exceeding its
// degradation threshold. The kernel's policy is to retire the whole frame
// so the spare region stops bleeding capacity into a dying page.
func (k *Kernel) PageDegraded(p addr.PageNum, linesLost int) { k.RetirePage(p) }

// PagesRetired returns the number of physical pages retired.
func (k *Kernel) PagesRetired() uint64 { return k.pagesRetired.Value() }

// fault allocates and clears a physical page for vpn, maps it writable,
// and returns the fault cycles.
func (k *Kernel) fault(core int, p *Process, vpn addr.VPageNum) clock.Cycles {
	k.pageFaults.Inc()
	k.bus.Emit(obs.EvPageFault, uint64(vpn.Addr()), 0)
	ppn, ok := k.allocPage()
	if !ok {
		k.oomEvents.Inc()
		// Out of memory: reuse the zero page read-only; real kernels
		// would OOM-kill. Experiments size their pools to avoid this.
		p.AS.Map(vpn, mmu.PTE{PPN: k.zeroPPN, ZeroPage: true})
		return FaultOverhead
	}
	lat := FaultOverhead + k.ClearPage(core, ppn)
	p.AS.Map(vpn, mmu.PTE{PPN: ppn, Writable: true})
	p.pages[vpn] = ppn
	k.faultCycles.Add(uint64(lat))
	return lat
}

// ClearPhysPage shreds/zeroes physical page ppn through hierarchy h using
// the given strategy, returning the core cycles it cost. Both the kernel
// (clear_page) and the hypervisor (inter-VM shredding, Figure 1) use this
// path.
func ClearPhysPage(h *hier.Hierarchy, core int, mode ZeroMode, ppn addr.PageNum) clock.Cycles {
	mc := h.Controller()
	if mode == ZeroNone {
		return 0
	}
	// Provenance: the clear is one operation — OpShred when the shred
	// command does the work, OpZero when data writes do. The controller
	// layers credit their segments as the clear descends; kernel-side
	// costs (invalidation messages, store-buffer occupancy, scrub and
	// shred overheads) land in the span's unattributed remainder.
	rec := mc.Spans()
	op := span.OpZero
	if mode == ZeroShred {
		op = span.OpShred
	}
	rec.Begin(op, uint64(ppn.Addr()))
	var lat clock.Cycles
	// Physical shred policy (memctrl/policy.go): overwrite the NVM
	// cells before the logical clear. A no-op under the default
	// zero-cost policy; under duty-to-delete/multi-pass the core pays
	// store-buffer occupancy per scrubbed line, like NT zeroing. The
	// scrub runs first so a crash anywhere inside it leaves the shred
	// uncommitted — recovery sees stale garbage, never a half-cleared
	// page that claims to be shredded.
	if writes := mc.ScrubPage(ppn); writes > 0 {
		lat += memctrl.ScrubLatency(writes, hier.NTStoreCycles)
	}
	switch mode {
	case ZeroTemporal:
		// 64 ordinary stores through the hierarchy: write-allocate,
		// cache pollution, and the zeros only reach NVM on eviction.
		img := mc.Image()
		var zeros [addr.BlockSize]byte
		for i := 0; i < addr.BlocksPerPage; i++ {
			a := ppn.BlockAddr(i)
			// Write-allocate first (fetching the old contents), then
			// apply the architectural zeros — the order a real store
			// takes through the hierarchy.
			lat += h.Write(core, a)
			img.Write(a, zeros[:])
		}
	case ZeroNonTemporal:
		// Invalidate stale cached copies (contents are superseded),
		// then write 64 encrypted zero blocks to NVM. The core sees
		// store-buffer occupancy, not NVM write latency.
		msgs := h.ShredInvalidate(ppn)
		lat += clock.Cycles(msgs) * InvalMsgCost
		mc.ZeroPageDirect(ppn)
		lat += clock.Cycles(addr.BlocksPerPage) * hier.NTStoreCycles
	case ZeroShred:
		// Silent Shredder: invalidate cached copies, flip the page's
		// encryption counters, done. No data writes at all.
		msgs := h.ShredInvalidate(ppn)
		lat += clock.Cycles(msgs) * InvalMsgCost
		lat += mc.Shred(ppn)
		lat += ShredOverhead
	}
	rec.End(uint64(lat))
	return lat
}

// ClearPage shreds/zeroes physical page ppn using the kernel's strategy
// and returns the core cycles it cost. This is the kernel's clear_page.
func (k *Kernel) ClearPage(core int, ppn addr.PageNum) clock.Cycles {
	lat := ClearPhysPage(k.h, core, k.mode, ppn)
	if k.mode == ZeroNone {
		return 0
	}
	if k.mode == ZeroNonTemporal {
		k.ntZeroWrites.Add(addr.BlocksPerPage)
	}
	k.pagesCleared.Inc()
	k.zeroCycles.Add(uint64(lat))
	return lat
}

// ShredRange is the §7.2 user-level bulk-initialization syscall: the
// process asks the kernel to zero npages starting at va. Already-mapped
// writable pages are cleared in place; untouched pages need nothing (they
// will be cleared when first faulted in). Returns the syscall cycles.
func (k *Kernel) ShredRange(core int, p *Process, va addr.Virt, npages int) clock.Cycles {
	var lat clock.Cycles
	vpn := va.Page()
	for i := 0; i < npages; i++ {
		if pte, ok := p.AS.Lookup(vpn + addr.VPageNum(i)); ok && pte.Writable {
			lat += k.ClearPage(core, pte.PPN)
		}
	}
	return lat
}

// Munmap releases npages of virtual address space starting at va,
// returning any backing physical pages to the free pool (uncleaned —
// they are shredded on reallocation).
func (k *Kernel) Munmap(p *Process, va addr.Virt, npages int) {
	vpn := va.Page()
	for i := 0; i < npages; i++ {
		v := vpn + addr.VPageNum(i)
		pte, ok := p.AS.Unmap(v)
		if !ok {
			continue
		}
		if !pte.ZeroPage {
			k.src.FreePage(pte.PPN)
			delete(p.pages, v)
		}
		for _, tlb := range k.tlbs {
			tlb.Invalidate(p.AS.ID, v)
		}
	}
}

// ZeroPPN returns the shared Zero Page's physical page number.
func (k *Kernel) ZeroPPN() addr.PageNum { return k.zeroPPN }

// PagesCleared returns the number of pages cleared at allocation.
func (k *Kernel) PagesCleared() uint64 { return k.pagesCleared.Value() }

// NTZeroWrites returns NVM writes issued by non-temporal kernel zeroing.
func (k *Kernel) NTZeroWrites() uint64 { return k.ntZeroWrites.Value() }

// ZeroCycles returns total core cycles spent clearing pages.
func (k *Kernel) ZeroCycles() uint64 { return k.zeroCycles.Value() }

// FaultCycles returns total page-fault cycles (overhead + clearing).
func (k *Kernel) FaultCycles() uint64 { return k.faultCycles.Value() }

// StatsSet exposes kernel statistics.
func (k *Kernel) StatsSet() *stats.Set {
	s := stats.NewSet("kernel")
	s.RegisterCounter("page_faults", &k.pageFaults)
	s.RegisterCounter("cow_faults", &k.cowFaults)
	s.RegisterCounter("pages_cleared", &k.pagesCleared)
	s.RegisterCounter("nt_zero_writes", &k.ntZeroWrites)
	s.RegisterCounter("zero_cycles", &k.zeroCycles)
	s.RegisterCounter("fault_cycles", &k.faultCycles)
	s.RegisterCounter("oom_events", &k.oomEvents)
	// Registered only when the fault/ECC machinery exists, so default
	// (fault-free) runs print byte-identical statistics to the seed.
	if k.mc.ECCEnabled() {
		s.RegisterCounter("pages_retired", &k.pagesRetired)
	}
	return s
}
