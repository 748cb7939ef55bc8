package hier

import (
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/cache"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/nvm"
	"silentshredder/internal/physmem"
)

func benchHier(b *testing.B, cfg Config) *Hierarchy {
	b.Helper()
	dev := nvm.New(nvm.DefaultConfig())
	mc, err := memctrl.New(memctrl.DefaultConfig(memctrl.SilentShredder), dev, physmem.New(false))
	if err != nil {
		b.Fatal(err)
	}
	return New(cfg, mc)
}

func BenchmarkReadL1Hit(b *testing.B) {
	h := benchHier(b, Table1Config(1))
	h.Read(0, 0x40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Read(0, 0x40)
	}
}

func BenchmarkReadLLCMissShredded(b *testing.B) {
	h := benchHier(b, Table1Config(1))
	mc := h.Controller()
	for p := addr.PageNum(0); p < 1024; p++ {
		mc.Shred(p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Large stride defeats all cache levels.
		h.Read(0, addr.PageNum(i%1024).BlockAddr(i%64))
		if i%4096 == 0 {
			h.Crash() // drop contents so misses keep occurring
		}
	}
}

// BenchmarkReadL3Evict times reads on a two-core Table 1 hierarchy with
// every cache scaled down 8x, as the bench workloads' machine is, over a
// 2MB working set: twice L3, a quarter of L4. The cores take turns
// walking it block by block, so each read misses L1, L2 and L3, hits
// L4, and its L3 fill evicts a block last read a whole walk earlier,
// which no private cache still holds. That is the shape of spec_timing.
func BenchmarkReadL3Evict(b *testing.B) {
	cfg := Table1Config(2)
	for _, c := range []*cache.Config{&cfg.L1, &cfg.L2, &cfg.L3, &cfg.L4} {
		c.Size /= 8
	}
	h := benchHier(b, cfg)
	const blocks = 2 << 20 >> addr.BlockShift
	for i := 0; i < blocks; i++ {
		h.Read(i&1, addr.Phys(i)<<addr.BlockShift)
	}
	misses, l3ev := h.llcMisses.Value(), h.L3().Evictions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Read(i&1, addr.Phys(i%blocks)<<addr.BlockShift)
	}
	b.StopTimer()
	if h.llcMisses.Value() != misses || h.L3().Evictions()-l3ev != uint64(b.N) {
		b.Fatalf("%d reads: %d LLC misses and %d L3 evictions, want 0 and %d",
			b.N, h.llcMisses.Value()-misses, h.L3().Evictions()-l3ev, b.N)
	}
}

func BenchmarkWriteOwned(b *testing.B) {
	h := benchHier(b, Table1Config(1))
	h.Write(0, 0x40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Write(0, 0x40)
	}
}

// BenchmarkShredInvalidate times shredding a page that core 0 holds in
// full, on an 8-core Table 1 hierarchy: 64 lines each in its L1, L2 and
// the shared L3 and L4, nothing in the other cores' caches. Each batch
// of pages is read back in with the timer stopped, so no timed call
// shreds a page an earlier one already emptied.
func BenchmarkShredInvalidate(b *testing.B) {
	const batch = 8 // 512 blocks: fits core 0's L1 without evictions
	h := benchHier(b, Table1Config(8))
	for i := 0; i < b.N; i++ {
		if i%batch == 0 {
			b.StopTimer()
			for p := addr.PageNum(0); p < batch; p++ {
				for j := 0; j < addr.BlocksPerPage; j++ {
					h.Read(0, p.BlockAddr(j))
				}
			}
			b.StartTimer()
		}
		if n := h.ShredInvalidate(addr.PageNum(i % batch)); n != 2*addr.BlocksPerPage {
			b.Fatalf("shred sent %d invalidations, want %d", n, 2*addr.BlocksPerPage)
		}
	}
}
