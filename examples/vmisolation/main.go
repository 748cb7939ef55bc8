// VM isolation: the paper's Figure 1 scenario. A hypervisor grants
// memory to virtual machines in large batches, shredding every page that
// crosses a VM boundary; the guest kernel inside each VM shreds again
// when mapping pages to its processes. With Silent Shredder both layers
// cost zero NVM writes.
//
//	go run ./examples/vmisolation
package main

import (
	"fmt"
	"log"

	"silentshredder/internal/addr"
	"silentshredder/internal/apprt"
	"silentshredder/internal/cpu"
	"silentshredder/internal/hypervisor"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/sim"
)

func main() {
	cfg := sim.ScaledConfig(memctrl.SilentShredder, kernel.ZeroShred, 64)
	cfg.Hier.Cores = 2
	cfg.MemPages = 1 << 14
	m, err := sim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	hv := hypervisor.New(hypervisor.DefaultConfig(kernel.ZeroShred), m.Hier, m.Source)

	// --- VM A boots, runs a workload with secrets ---
	vmA := hv.NewVM()
	guestA, err := hv.GuestKernel(vmA, kernel.ZeroShred)
	if err != nil {
		log.Fatal(err)
	}
	procA := guestA.NewProcess()
	rtA := apprt.New(guestA, 0, procA, cpu.New(0))
	vaA := rtA.Malloc(8 * addr.PageSize)
	rtA.StoreBytes(vaA, []byte("VM-A tenant database encryption key"))
	fmt.Printf("VM A wrote its tenant secret; hypervisor granted %d pages in %d batched grants\n",
		hv.PagesGranted(), hv.Grants())

	// --- the host is loaded: balloon VM A, tear it down ---
	hv.Balloon(vmA, vmA.PoolSize())
	hv.DestroyVM(vmA)
	fmt.Printf("VM A destroyed; %d balloon reclaims so far\n", hv.Reclaims())

	// --- VM B receives the recycled physical pages ---
	vmB := hv.NewVM()
	guestB, err := hv.GuestKernel(vmB, kernel.ZeroShred)
	if err != nil {
		log.Fatal(err)
	}
	procB := guestB.NewProcess()
	rtB := apprt.New(guestB, 1, procB, cpu.New(1))
	vaB := rtB.Malloc(8 * addr.PageSize)
	rtB.Store(vaB+1024, 7) // fault the recycled page in
	got := rtB.LoadBytes(vaB, 35)
	fmt.Printf("VM B reads the recycled page: %v\n", got)

	zero := true
	for _, b := range got {
		if b != 0 {
			zero = false
		}
	}
	if !zero {
		log.Fatal("inter-VM data leak!")
	}

	fmt.Println()
	fmt.Println("duplicate shredding (Figure 1), all at zero write cost:")
	fmt.Printf("  hypervisor-level shreds: %d pages\n", hv.PagesCleared())
	fmt.Printf("  guest-kernel shreds:     %d + %d pages\n",
		guestA.PagesCleared(), guestB.PagesCleared())
	fmt.Printf("  total shred commands:    %d\n", m.MC.ShredCommands())
	fmt.Printf("  NVM data writes caused by all that shredding: %d\n", m.MC.ZeroingWrites())
	fmt.Printf("  (a zeroing stack would have written %d blocks)\n",
		m.MC.ShredCommands()*addr.BlocksPerPage)
}
