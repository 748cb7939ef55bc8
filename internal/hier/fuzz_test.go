package hier

import (
	"math/rand"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/cache"
	"silentshredder/internal/memctrl"
)

// Fuzz-style stress: random reads/writes/NT-stores/shreds/flushes across
// four cores over a small block universe; the structural invariants
// (inclusion, directory coverage, single writer) must hold after every
// operation.
func TestRandomOpsPreserveInvariants(t *testing.T) {
	h, mc, _ := newHier(t, tinyConfig(4), memctrl.SilentShredder)
	rng := rand.New(rand.NewSource(99))

	const npages = 3
	var universe []addr.Phys
	for b := 0; b < npages*addr.BlocksPerPage; b++ {
		universe = append(universe, addr.Phys(b)<<addr.BlockShift)
	}

	for i := 0; i < 4000; i++ {
		a := universe[rng.Intn(len(universe))]
		core := rng.Intn(4)
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			h.Read(core, a)
		case 4, 5, 6:
			h.Write(core, a)
		case 7:
			h.WriteNonTemporal(a)
		case 8:
			p := a.Page()
			h.ShredInvalidate(p)
			mc.Shred(p)
		case 9:
			if rng.Intn(50) == 0 {
				h.FlushAll()
			} else {
				h.Read(core, a)
			}
		}
		if i%97 == 0 {
			if err := h.CheckInvariants(universe); err != nil {
				t.Fatalf("after %d ops: %v", i, err)
			}
		}
	}
	if err := h.CheckInvariants(universe); err != nil {
		t.Fatal(err)
	}
}

// The invariant checker itself must detect a planted violation.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	h, _, _ := newHier(t, tinyConfig(2), memctrl.Baseline)
	h.Read(0, 0x40)
	// Corrupt: invalidate the L3 copy behind the hierarchy's back,
	// breaking inclusion.
	h.L3().Invalidate(0x40)
	if err := h.CheckInvariants([]addr.Phys{0x40}); err == nil {
		t.Fatal("planted inclusion violation not detected")
	}
}

func TestFlushPage(t *testing.T) {
	h, mc, _ := newHier(t, tinyConfig(2), memctrl.Baseline)
	p := addr.PageNum(1)
	h.Write(0, p.BlockAddr(0))
	h.Write(1, p.BlockAddr(1))
	h.Read(0, p.BlockAddr(2))
	dirty := h.FlushPage(p)
	if dirty != 2 {
		t.Fatalf("FlushPage wrote %d blocks, want 2", dirty)
	}
	if mc.DataWrites() != 2 {
		t.Fatalf("controller writes = %d", mc.DataWrites())
	}
	// Everything gone from every level.
	for i := 0; i < 3; i++ {
		if h.L4().Probe(p.BlockAddr(i)) != nil {
			t.Fatalf("block %d survived FlushPage", i)
		}
	}
	if err := h.CheckInvariants([]addr.Phys{p.BlockAddr(0), p.BlockAddr(1), p.BlockAddr(2)}); err != nil {
		t.Fatal(err)
	}
}

// directConfig is tinyConfig with every level direct-mapped: each L3 or
// L4 fill evicts whatever shares its set, so back-invalidations of
// blocks other cores hold are frequent.
func directConfig(cores int) Config {
	cfg := tinyConfig(cores)
	cfg.L1 = cache.Config{Name: "l1", Size: 256, Assoc: 1, HitLatency: 2}
	cfg.L2 = cache.Config{Name: "l2", Size: 512, Assoc: 1, HitLatency: 8}
	cfg.L3 = cache.Config{Name: "l3", Size: 1024, Assoc: 1, HitLatency: 25}
	cfg.L4 = cache.Config{Name: "l4", Size: 2048, Assoc: 1, HitLatency: 35}
	return cfg
}

// FuzzHierarchy runs a byte script of hierarchy operations and checks
// every structural invariant (CheckAll) after each one. The first byte
// picks the geometry (bit 0: tinyConfig or directConfig) and the core
// count (bits 1-2: 1 to 4 cores); then every two bytes are one
// operation:
//
//	op    bits 0-3: operation; bits 4-7: core (mod the core count)
//	block the block, mod the 192 blocks of pages 0-2
//
// Operations 0-4 and 15 are Read, 5-9 Write, 10 WriteNonTemporal, 11
// ShredInvalidate followed by the controller's Shred, 12 FlushPage of
// the block's page, 13 FlushAll and 14 Crash. A shred must return the
// number of the page's L1 and L2 lines probed just before it and leave
// none of the page's blocks at any level. After FlushAll and Crash
// nothing may stay resident or in the directory.
func FuzzHierarchy(f *testing.F) {
	f.Add([]byte{6, 0x00, 5, 0x10, 5, 0x20, 5, 0x35, 5, 0x00, 69, 0x0a, 5, 0x0c, 0, 0x0e, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		cfg := tinyConfig(1 + int(script[0]>>1&3))
		if script[0]&1 != 0 {
			cfg = directConfig(cfg.Cores)
		}
		h, mc, _ := newHier(t, cfg, memctrl.SilentShredder)
		script = script[1:]
		for step := 0; len(script) >= 2; step++ {
			op, core := script[0]&15, int(script[0]>>4)%cfg.Cores
			a := addr.Phys(int(script[1])%(3*addr.BlocksPerPage)) << addr.BlockShift
			script = script[2:]
			switch op {
			case 0, 1, 2, 3, 4, 15:
				h.Read(core, a)
			case 5, 6, 7, 8, 9:
				h.Write(core, a)
			case 10:
				h.WriteNonTemporal(a)
			case 11:
				p, want := a.Page(), 0
				for c := 0; c < cfg.Cores; c++ {
					for i := 0; i < addr.BlocksPerPage; i++ {
						if h.L1(c).Probe(p.BlockAddr(i)) != nil {
							want++
						}
						if h.L2(c).Probe(p.BlockAddr(i)) != nil {
							want++
						}
					}
				}
				if got := h.ShredInvalidate(p); got != want {
					t.Fatalf("step %d: ShredInvalidate(%v) = %d, want the %d private lines it held", step, p, got, want)
				}
				for i := 0; i < addr.BlocksPerPage; i++ {
					if h.ResidentAny(p.BlockAddr(i)) {
						t.Fatalf("step %d: block %d of shredded page %v still resident", step, i, p)
					}
				}
				mc.Shred(p)
			case 12:
				h.FlushPage(a.Page())
			case 13:
				h.FlushAll()
			case 14:
				h.Crash()
			}
			if err := h.CheckAll(); err != nil {
				t.Fatalf("step %d (op %d, core %d, %v) on %d cores, L1 %d-way: %v",
					step, op, core, a, cfg.Cores, cfg.L1.Assoc, err)
			}
			if (op == 13 || op == 14) && len(h.ResidentBlocks()) != 0 {
				t.Fatalf("step %d: blocks resident after op %d: %v", step, op, h.ResidentBlocks())
			}
		}
	})
}
