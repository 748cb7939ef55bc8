package kernel

import (
	"fmt"

	"silentshredder/internal/addr"
	"silentshredder/internal/clock"
	"silentshredder/internal/hier"
	"silentshredder/internal/mmu"
)

// Persistent memory support (§2.1). NVMM doubles as storage: regular
// stores build persistent data structures, and the OS must keep the page
// mapping information itself persistent so a process can remap the same
// physical pages across reboots (the paper cites Mnemosyne and the
// persistent/protected/cached building blocks).
//
// The model: a process registers a named region; the kernel journals
// (name -> physical pages) to a reserved NVM area. A crash drops any
// journal update that was not committed, exactly like the counter cache's
// persistence rules. Registered pages are exempt from reuse — and
// therefore from shredding — until the region is unlinked, at which point
// they return to the pool and are shredded on their next allocation like
// any other page.

// persistentRegion is one named persistent mapping.
type persistentRegion struct {
	Name  string
	Pages []addr.PageNum
}

// journalAddr is where the mapping journal lives in NVM (a reserved
// kernel area, below the counter region).
const journalBase addr.Phys = 1 << 45

// PersistentMmap creates (or errors on a duplicate of) a named persistent
// region of npages, maps it writable into p, and commits the mapping
// journal to NVM. Returns the base virtual address.
func (k *Kernel) PersistentMmap(core int, p *Process, name string, npages int) (addr.Virt, error) {
	if _, dup := k.persistent[name]; dup {
		return 0, fmt.Errorf("kernel: persistent region %q exists (use RecoverPersistent)", name)
	}
	region := &persistentRegion{Name: name}
	base := k.Mmap(p, npages)
	vpn := base.Page()
	var lat clock.Cycles
	for i := 0; i < npages; i++ {
		ppn, ok := k.allocPage()
		if !ok {
			k.oomEvents.Inc()
			return 0, fmt.Errorf("kernel: out of memory for persistent region %q", name)
		}
		// Fresh persistent pages are cleared like any allocation (no
		// stale data may leak into the new region).
		lat += k.ClearPage(core, ppn)
		p.AS.Map(vpn+addr.VPageNum(i), mmu.PTE{PPN: ppn, Writable: true})
		region.Pages = append(region.Pages, ppn)
	}
	k.persistent[name] = region
	k.commitJournal()
	k.faultCycles.Add(uint64(lat))
	return base, nil
}

// RecoverPersistent remaps an existing persistent region into p after a
// reboot. The pages are *not* cleared: their contents are the persistent
// data. Returns the new base virtual address.
func (k *Kernel) RecoverPersistent(p *Process, name string) (addr.Virt, error) {
	region, ok := k.persistent[name]
	if !ok {
		return 0, fmt.Errorf("kernel: no persistent region %q in the journal", name)
	}
	base := k.Mmap(p, len(region.Pages))
	vpn := base.Page()
	for i, ppn := range region.Pages {
		p.AS.Map(vpn+addr.VPageNum(i), mmu.PTE{PPN: ppn, Writable: true})
	}
	return base, nil
}

// PersistRange flushes the cached blocks of npages at va to NVM — the
// clwb loop + sfence/pcommit sequence that makes prior stores durable.
// Returns the cycles charged to the calling core.
func (k *Kernel) PersistRange(core int, p *Process, va addr.Virt, npages int) clock.Cycles {
	var lat clock.Cycles
	vpn := va.Page()
	for i := 0; i < npages; i++ {
		if pte, ok := p.AS.Lookup(vpn + addr.VPageNum(i)); ok && !pte.ZeroPage {
			dirty := k.h.FlushPage(pte.PPN)
			// The core waits for the write queue to drain (pcommit
			// semantics): bus occupancy per dirty line.
			lat += clock.Cycles(dirty) * hier.NTStoreCycles
		}
	}
	_ = core
	return lat
}

// commitJournal persists the region registry: one journal block write per
// commit (the registry is tiny; a real implementation would log-update).
// The committed copy is what a crash recovers to.
func (k *Kernel) commitJournal() {
	k.journalCommits.Inc()
	k.mc.Device().WriteBlock(journalBase, nil)
	k.persistedJournal = make(map[string]*persistentRegion, len(k.persistent))
	for name, r := range k.persistent {
		cp := &persistentRegion{Name: r.Name, Pages: append([]addr.PageNum(nil), r.Pages...)}
		k.persistedJournal[name] = cp
	}
}

// RecoverJournal reverts the in-memory registry to the last committed
// journal. sim.Machine.Crash-driven reboots call this via Kernel.Crash.
func (k *Kernel) RecoverJournal() {
	k.persistent = make(map[string]*persistentRegion, len(k.persistedJournal))
	for name, r := range k.persistedJournal {
		cp := &persistentRegion{Name: r.Name, Pages: append([]addr.PageNum(nil), r.Pages...)}
		k.persistent[name] = cp
	}
}

// PersistentRegions returns the names of journaled regions.
func (k *Kernel) PersistentRegions() []string {
	out := make([]string, 0, len(k.persistent))
	for name := range k.persistent {
		out = append(out, name)
	}
	return out
}

// JournalCommits returns the number of journal commits to NVM.
func (k *Kernel) JournalCommits() uint64 { return k.journalCommits.Value() }
