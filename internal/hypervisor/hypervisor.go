// Package hypervisor models the virtualization layer of the paper's
// Figure 1: a hypervisor that owns the host's physical memory, grants it
// to virtual machines in large batches, and shreds every page crossing a
// VM boundary to prevent inter-VM data leaks — on top of which each
// guest kernel shreds again when mapping pages to its processes
// (duplicate shredding).
//
// It also models memory ballooning (§7.2): on a loaded host, the
// hypervisor continuously reclaims pages from one VM and re-grants them
// to another, shredding on every transition — the scenario where Silent
// Shredder's zero-cost shredding pays off most.
package hypervisor

import (
	"silentshredder/internal/addr"
	"silentshredder/internal/hier"
	"silentshredder/internal/kernel"
	"silentshredder/internal/stats"
)

// Config holds hypervisor parameters.
type Config struct {
	// Mode is the hypervisor's shredding strategy for pages crossing VM
	// boundaries.
	Mode kernel.ZeroMode

	// GrantBatch is how many pages a VM receives per request — VMs
	// request large allocations to reduce hypervisor interventions and
	// translation overhead (§1).
	GrantBatch int
}

// DefaultConfig returns a hypervisor with the given shredding mode and a
// 512-page (2MB) grant batch.
func DefaultConfig(mode kernel.ZeroMode) Config {
	return Config{Mode: mode, GrantBatch: 512}
}

// Hypervisor manages the host pool and the VMs.
type Hypervisor struct {
	cfg  Config
	h    *hier.Hierarchy
	host kernel.PageSource
	vms  map[int]*VM
	next int

	grants       stats.Counter
	pagesGranted stats.Counter
	pagesCleared stats.Counter
	reclaims     stats.Counter
}

// New creates a hypervisor drawing host pages from src.
func New(cfg Config, h *hier.Hierarchy, src kernel.PageSource) *Hypervisor {
	if cfg.GrantBatch <= 0 {
		cfg.GrantBatch = 512
	}
	return &Hypervisor{cfg: cfg, h: h, host: src, vms: make(map[int]*VM)}
}

// VM is one virtual machine's page pool. It implements kernel.PageSource,
// so a guest kernel allocates directly from it — and every page it hands
// out has already been shredded once by the hypervisor.
type VM struct {
	ID   int
	hv   *Hypervisor
	pool []addr.PageNum
	held map[addr.PageNum]bool // every page currently owned by this VM
}

// NewVM registers a new virtual machine.
func (hv *Hypervisor) NewVM() *VM {
	hv.next++
	vm := &VM{ID: hv.next, hv: hv, held: make(map[addr.PageNum]bool)}
	hv.vms[vm.ID] = vm
	return vm
}

// AllocPage implements kernel.PageSource for the guest kernel. An empty
// pool triggers a batched grant from the hypervisor (Figure 1, steps 1-2).
func (vm *VM) AllocPage() (addr.PageNum, bool) {
	if len(vm.pool) == 0 {
		if vm.hv.grant(vm, vm.hv.cfg.GrantBatch) == 0 {
			return 0, false
		}
	}
	p := vm.pool[len(vm.pool)-1]
	vm.pool = vm.pool[:len(vm.pool)-1]
	return p, true
}

// FreePage implements kernel.PageSource: the page returns to the VM's
// pool (still owned by the VM — no hypervisor shredding needed until it
// crosses a VM boundary).
func (vm *VM) FreePage(p addr.PageNum) { vm.pool = append(vm.pool, p) }

// PoolSize returns the VM's currently free (granted but unused) pages.
func (vm *VM) PoolSize() int { return len(vm.pool) }

// grant moves up to n pages from the host pool into the VM, shredding
// each one at the hypervisor level (inter-VM isolation, Figure 1 step 2).
func (hv *Hypervisor) grant(vm *VM, n int) int {
	granted := 0
	for i := 0; i < n; i++ {
		p, ok := hv.host.AllocPage()
		if !ok {
			break
		}
		kernel.ClearPhysPage(hv.h, 0, hv.cfg.Mode, p)
		if hv.cfg.Mode != kernel.ZeroNone {
			hv.pagesCleared.Inc()
		}
		vm.pool = append(vm.pool, p)
		vm.held[p] = true
		hv.pagesGranted.Inc()
		granted++
	}
	if granted > 0 {
		hv.grants.Inc()
	}
	return granted
}

// Balloon reclaims up to n free pages from the VM back to the host pool
// (memory ballooning). Reclaimed pages are not cleared here — they are
// shredded when granted to their next owner.
func (hv *Hypervisor) Balloon(vm *VM, n int) int {
	reclaimed := 0
	for reclaimed < n && len(vm.pool) > 0 {
		p := vm.pool[len(vm.pool)-1]
		vm.pool = vm.pool[:len(vm.pool)-1]
		delete(vm.held, p)
		hv.host.FreePage(p)
		reclaimed++
	}
	if reclaimed > 0 {
		hv.reclaims.Inc()
	}
	return reclaimed
}

// DestroyVM returns every page the VM owns to the host pool. Pages may
// hold guest secrets; they are shredded at next grant, never handed out
// raw (enforced by grant).
func (hv *Hypervisor) DestroyVM(vm *VM) {
	for p := range vm.held {
		hv.host.FreePage(p)
	}
	vm.pool = nil
	vm.held = nil
	delete(hv.vms, vm.ID)
}

// GuestKernel boots a guest kernel inside the VM: a kernel whose page
// source is the VM's pool, with its own (guest-level) shredding mode.
// The result is the full Figure 1 stack: hypervisor shredding on grant,
// guest-kernel shredding on process page allocation.
func (hv *Hypervisor) GuestKernel(vm *VM, mode kernel.ZeroMode) (*kernel.Kernel, error) {
	return kernel.New(mode, hv.h, vm)
}

// Grants returns the number of batched grant operations.
func (hv *Hypervisor) Grants() uint64 { return hv.grants.Value() }

// PagesGranted returns total pages moved host -> VM.
func (hv *Hypervisor) PagesGranted() uint64 { return hv.pagesGranted.Value() }

// PagesCleared returns pages the hypervisor shredded/zeroed.
func (hv *Hypervisor) PagesCleared() uint64 { return hv.pagesCleared.Value() }

// Reclaims returns balloon operations performed.
func (hv *Hypervisor) Reclaims() uint64 { return hv.reclaims.Value() }
