package hier

import (
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/cache"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/nvm"
	"silentshredder/internal/physmem"
)

func tinyConfig(cores int) Config {
	return Config{
		Cores:            cores,
		L1:               cache.Config{Name: "l1", Size: 512, Assoc: 2, HitLatency: 2},
		L2:               cache.Config{Name: "l2", Size: 1024, Assoc: 2, HitLatency: 8},
		L3:               cache.Config{Name: "l3", Size: 2048, Assoc: 2, HitLatency: 25},
		L4:               cache.Config{Name: "l4", Size: 4096, Assoc: 2, HitLatency: 35},
		CoherencePenalty: 25,
		NTStoreCycles:    5,
	}
}

func newHier(t *testing.T, cfg Config, mode memctrl.Mode) (*Hierarchy, *memctrl.Controller, *nvm.Device) {
	t.Helper()
	dev := nvm.New(nvm.DefaultConfig())
	img := physmem.New(true)
	mc, err := memctrl.New(memctrl.DefaultConfig(mode), dev, img)
	if err != nil {
		t.Fatal(err)
	}
	return New(cfg, mc), mc, dev
}

func TestTable1Config(t *testing.T) {
	cfg := Table1Config(8)
	if cfg.L1.Size != 64<<10 || cfg.L2.Size != 512<<10 || cfg.L3.Size != 8<<20 || cfg.L4.Size != 64<<20 {
		t.Fatal("Table 1 sizes wrong")
	}
	if cfg.L1.HitLatency != 2 || cfg.L2.HitLatency != 8 || cfg.L3.HitLatency != 25 || cfg.L4.HitLatency != 35 {
		t.Fatal("Table 1 latencies wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	for _, cores := range []int{0, 9} {
		if tinyConfig(cores).Validate() == nil {
			t.Errorf("cores=%d: Validate accepted it", cores)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cores=%d: want panic", cores)
				}
			}()
			newHier(t, tinyConfig(cores), memctrl.Baseline)
		}()
	}
	if err := tinyConfig(8).Validate(); err != nil {
		t.Fatalf("cores=8: %v", err)
	}
	if h, _, _ := newHier(t, tinyConfig(8), memctrl.Baseline); len(h.l1) != 8 {
		t.Fatalf("8-core hierarchy has %d L1 caches", len(h.l1))
	}
}

func TestReadMissThenHitLatency(t *testing.T) {
	h, _, _ := newHier(t, tinyConfig(1), memctrl.Baseline)
	first := h.Read(0, 0x40)
	if first <= 2+8+25+35 {
		t.Fatalf("cold read latency %d must include memory access", first)
	}
	second := h.Read(0, 0x40)
	if second != 2 {
		t.Fatalf("L1 hit latency = %d, want 2", second)
	}
	if h.llcMisses.Value() != 1 {
		t.Fatalf("LLCMisses = %d", h.llcMisses.Value())
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	h, _, _ := newHier(t, tinyConfig(1), memctrl.Baseline)
	// L1: 4 sets x 2 ways. Blocks 0x000,0x100,0x200 map to set 0.
	h.Read(0, 0x000)
	h.Read(0, 0x100)
	h.Read(0, 0x200) // evicts 0x000 from L1; still in L2
	lat := h.Read(0, 0x000)
	if lat != 2+8 {
		t.Fatalf("L2 hit latency = %d, want 10", lat)
	}
}

func TestWriteAllocateAndWritebackOnEviction(t *testing.T) {
	h, mc, _ := newHier(t, tinyConfig(1), memctrl.Baseline)
	h.Write(0, 0x40)
	if mc.DataWrites() != 0 {
		t.Fatal("write must not reach NVM while cached")
	}
	// Evict it all the way out of L4 (2 sets x 2 ways, stride 128B).
	// Filling many conflicting blocks forces the dirty line to NVM.
	for i := 1; i <= 8; i++ {
		h.Read(0, addr.Phys(0x40+i*4096))
	}
	if mc.DataWrites() == 0 {
		t.Fatal("dirty eviction never wrote back to NVM")
	}
}

func TestFlushAllWritesDirtyOnce(t *testing.T) {
	h, mc, _ := newHier(t, tinyConfig(2), memctrl.Baseline)
	h.Write(0, 0x40)
	h.Write(1, 0x80)
	h.FlushAll()
	if got := mc.DataWrites(); got != 2 {
		t.Fatalf("FlushAll wrote %d blocks, want 2", got)
	}
	// Everything gone: next read misses to memory.
	if lat := h.Read(0, 0x40); lat <= 70 {
		t.Fatalf("post-flush read latency = %d, expected memory access", lat)
	}
}

func TestCrashDropsDirtyData(t *testing.T) {
	h, mc, _ := newHier(t, tinyConfig(1), memctrl.Baseline)
	h.Write(0, 0x40)
	h.Crash()
	if mc.DataWrites() != 0 {
		t.Fatal("crash must not write back")
	}
}

func TestCoherenceIntervention(t *testing.T) {
	h, _, _ := newHier(t, tinyConfig(2), memctrl.Baseline)
	h.Write(0, 0x40) // core 0 holds M
	lat := h.Read(1, 0x40)
	if h.interventions.Value() != 1 {
		t.Fatalf("interventions = %d, want 1", h.interventions.Value())
	}
	if lat <= 2+8 {
		t.Fatalf("intervention read latency = %d, too cheap", lat)
	}
	// Core 0's copy must be downgraded: a fresh write by core 0 needs
	// ownership again (invalidating core 1).
	h.Write(0, 0x40)
	if h.invalidations.Value() == 0 {
		t.Fatal("write after downgrade must invalidate the other sharer")
	}
}

func TestWriteInvalidatesRemoteSharers(t *testing.T) {
	h, _, _ := newHier(t, tinyConfig(4), memctrl.Baseline)
	for c := 0; c < 4; c++ {
		h.Read(c, 0x40)
	}
	h.Write(0, 0x40)
	if h.invalidations.Value() != 3 {
		t.Fatalf("invalidations = %d, want 3", h.invalidations.Value())
	}
	// Remote cores must re-fetch (L1/L2 miss, but the block is still in
	// shared L3).
	lat := h.Read(1, 0x40)
	if lat < 2+8+25 {
		t.Fatalf("post-invalidate read latency = %d", lat)
	}
}

func TestExclusiveUpgradeIsSilent(t *testing.T) {
	h, _, _ := newHier(t, tinyConfig(2), memctrl.Baseline)
	h.Read(0, 0x40) // sole reader: Exclusive
	h.Write(0, 0x40)
	if h.invalidations.Value() != 0 {
		t.Fatal("E->M upgrade must not send invalidations")
	}
	if lat := h.Write(0, 0x40); lat != 2 {
		t.Fatalf("M-state store latency = %d, want 2", lat)
	}
}

func TestShredInvalidateDiscardsEverywhere(t *testing.T) {
	h, mc, _ := newHier(t, tinyConfig(2), memctrl.SilentShredder)
	p := addr.PageNum(1)
	h.Write(0, p.BlockAddr(0))
	h.Read(1, p.BlockAddr(1))
	msgs := h.ShredInvalidate(p)
	if msgs == 0 {
		t.Fatal("expected invalidation messages")
	}
	if mc.DataWrites() != 0 {
		t.Fatal("shred invalidation must not write back dead data")
	}
	// Both cores must now miss past L4.
	before := h.llcMisses.Value()
	h.Read(0, p.BlockAddr(0))
	if h.llcMisses.Value() != before+1 {
		t.Fatal("post-shred read must miss to the controller")
	}
}

func TestNonTemporalStoreBypassesAndInvalidates(t *testing.T) {
	h, mc, _ := newHier(t, tinyConfig(1), memctrl.Baseline)
	h.Write(0, 0x40) // dirty in cache
	lat := h.WriteNonTemporal(0x40)
	if lat != 5 {
		t.Fatalf("NT store occupancy = %d, want 5", lat)
	}
	if mc.DataWrites() != 1 {
		t.Fatalf("NT store must write NVM immediately, writes=%d", mc.DataWrites())
	}
	// The cached copy is gone.
	before := h.llcMisses.Value()
	h.Read(0, 0x40)
	if h.llcMisses.Value() != before+1 {
		t.Fatal("NT store must invalidate cached copies")
	}
}

func TestZeroFillReadThroughHierarchy(t *testing.T) {
	h, mc, _ := newHier(t, tinyConfig(1), memctrl.SilentShredder)
	p := addr.PageNum(2)
	mc.Shred(p)
	lat := h.Read(0, p.BlockAddr(0))
	// 2+8+25+35 + counter-cache (miss: 10+150) = 230; an NVM data read
	// would add ~150 more.
	if lat > 300 {
		t.Fatalf("shredded read latency = %d, too slow", lat)
	}
	if mc.ZeroFillReads() != 1 {
		t.Fatalf("ZeroFillReads = %d", mc.ZeroFillReads())
	}
	if mc.DataReads() != 0 {
		t.Fatal("zero-fill must not read NVM")
	}
}

func TestDirtySharedEvictionReachesNVM(t *testing.T) {
	// A dirty block pushed out of L3 by conflict must fold into L4 and
	// eventually reach the controller, not be lost.
	h, mc, _ := newHier(t, tinyConfig(1), memctrl.Baseline)
	h.Write(0, 0x40)
	for i := 1; i <= 16; i++ {
		h.Read(0, addr.Phys(0x40+i*2048))
	}
	h.FlushAll()
	if mc.DataWrites() == 0 {
		t.Fatal("dirty data lost in the hierarchy")
	}
}

func TestStatsSetAndReset(t *testing.T) {
	h, _, _ := newHier(t, tinyConfig(1), memctrl.Baseline)
	h.Read(0, 0x40)
	s := h.StatsSet()
	if v, ok := s.Get("llc_misses"); !ok || v != 1 {
		t.Fatalf("llc_misses = %v %v", v, ok)
	}
	h.ResetStats()
	if h.llcMisses.Value() != 0 || h.L1(0).Misses() != 0 {
		t.Fatal("reset failed")
	}
	if h.L2(0) == nil || h.L3() == nil || h.L4() == nil {
		t.Fatal("accessors broken")
	}
}

func TestAccessors(t *testing.T) {
	cfg := tinyConfig(2)
	h, mc, _ := newHier(t, cfg, memctrl.Baseline)
	if h.Config().Cores != 2 || h.Config().L1 != cfg.L1 {
		t.Fatalf("Config() = %+v", h.Config())
	}
	if h.Controller() != mc {
		t.Fatal("Controller() must return the backing controller")
	}
	h.SetBus(nil) // nil bus keeps the hierarchy silent; must not panic
	if lat := h.Read(0, 0x40); lat == 0 {
		t.Fatal("read with nil bus returned zero latency")
	}
}

func TestInvariantSweep(t *testing.T) {
	h, _, _ := newHier(t, tinyConfig(2), memctrl.Baseline)
	if err := h.CheckAll(); err != nil {
		t.Fatalf("empty hierarchy violates invariants: %v", err)
	}
	if len(h.ResidentBlocks()) != 0 || h.ResidentAny(0x40) {
		t.Fatal("empty hierarchy must have no resident blocks")
	}

	h.Read(0, 0x040)  // core 0 shared
	h.Write(1, 0x080) // core 1 modified
	h.Read(1, 0x040)  // 0x040 now shared by both cores

	if err := h.CheckAll(); err != nil {
		t.Fatalf("CheckAll after traffic: %v", err)
	}
	blocks := h.ResidentBlocks()
	if len(blocks) != 2 || blocks[0] != 0x040 || blocks[1] != 0x080 {
		t.Fatalf("ResidentBlocks = %v, want [0x40 0x80]", blocks)
	}
	if !h.ResidentAny(0x79) { // unaligned address inside block 0x40
		t.Fatal("ResidentAny must align down to the block")
	}
	if h.ResidentAny(0x0C0) {
		t.Fatal("untouched block reported resident")
	}

	// Corrupt the structure on purpose: a line present in L1 but
	// missing from L3 breaks inclusion, and CheckInvariants must say so.
	h.l3.Invalidate(0x080)
	if err := h.CheckInvariants([]addr.Phys{0x080}); err == nil {
		t.Fatal("broken inclusion must fail the sweep")
	}

	// The directory derives a Modified block's owner from its sharer
	// mask, a shred visits only the blocks the held bits name, relying
	// on inclusion down to L4, and a fill trusts the directory that the
	// block is absent. CheckAll must reject each state below that breaks
	// one of these, planted behind core 1's Modified block 0x080 (block 2
	// of page 0).
	for _, c := range []struct {
		name  string
		plant func(h *Hierarchy, dp *dirPage)
	}{
		{"Modified with two sharers", func(_ *Hierarchy, dp *dirPage) { dp.sharers[2] |= 1 }},
		{"Modified bit without sharers", func(_ *Hierarchy, dp *dirPage) { dp.modified |= 1 << 3 }},
		{"sharer beyond the last core", func(_ *Hierarchy, dp *dirPage) { dp.sharers[4] = 1 << 2 }},
		{"L3 line missing from L4", func(h *Hierarchy, _ *dirPage) { h.l3.Insert(0x0C0, cache.Shared, false) }},
		{"held bit without an L4 line", func(_ *Hierarchy, dp *dirPage) { dp.held |= 1 << 5 }},
		{"L4 line without its held bit", func(_ *Hierarchy, dp *dirPage) { dp.held &^= 1 << 2 }},
		{"block held twice in L1", func(h *Hierarchy, _ *dirPage) { h.l1[1].Fill(0x080, cache.Modified, true) }},
		{"block held twice in L4", func(h *Hierarchy, _ *dirPage) { h.l4.Fill(0x080, cache.Shared, false) }},
	} {
		h, _, _ := newHier(t, tinyConfig(2), memctrl.Baseline)
		h.Write(1, 0x080)
		c.plant(h, h.dir.pages.Get(0))
		if err := h.CheckAll(); err == nil {
			t.Errorf("%s: CheckAll accepted the directory", c.name)
		}
	}
}
