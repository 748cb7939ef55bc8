package hier

import (
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/nvm"
	"silentshredder/internal/physmem"
)

func benchHier(b *testing.B, cores int) *Hierarchy {
	b.Helper()
	dev := nvm.New(nvm.DefaultConfig())
	mc, err := memctrl.New(memctrl.DefaultConfig(memctrl.SilentShredder), dev, physmem.New(false))
	if err != nil {
		b.Fatal(err)
	}
	return New(Table1Config(cores), mc)
}

func BenchmarkReadL1Hit(b *testing.B) {
	h := benchHier(b, 1)
	h.Read(0, 0x40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Read(0, 0x40)
	}
}

func BenchmarkReadLLCMissShredded(b *testing.B) {
	h := benchHier(b, 1)
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

func BenchmarkWriteOwned(b *testing.B) {
	h := benchHier(b, 1)
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
	h := benchHier(b, 8)
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
