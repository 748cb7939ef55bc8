package cache

import (
	"testing"

	"silentshredder/internal/addr"
)

func BenchmarkLookupHit(b *testing.B) {
	c := New(Config{Name: "b", Size: 64 << 10, Assoc: 8, HitLatency: 2})
	c.Insert(0x40, Shared, false)
	for i := 0; i < b.N; i++ {
		c.Lookup(0x40)
	}
}

func BenchmarkInsertWithEvictions(b *testing.B) {
	c := New(Config{Name: "b", Size: 64 << 10, Assoc: 8, HitLatency: 2})
	for i := 0; i < b.N; i++ {
		c.Insert(addr.Phys(i)<<addr.BlockShift, Shared, i%2 == 0)
	}
}

// BenchmarkInvalidatePageCount times a whole-page invalidation, which
// probes the set of each of the page's 64 blocks, on a cache the size of
// the trace-replay benchmark's L4 (Table 1's 64MB at cache scale 8), with
// every other block of the page resident. Each
// batch of pages is refilled with the timer stopped, so every timed call
// removes 32 lines rather than re-invalidating an emptied page.
func BenchmarkInvalidatePageCount(b *testing.B) {
	const batch = 64
	c := New(Config{Name: "b", Size: 8 << 20, Assoc: 8, HitLatency: 35})
	for i := 0; i < b.N; i++ {
		if i%batch == 0 {
			b.StopTimer()
			for p := addr.PageNum(0); p < batch; p++ {
				for j := 0; j < addr.BlocksPerPage; j += 2 {
					c.Insert(p.BlockAddr(j), Shared, false)
				}
			}
			b.StartTimer()
		}
		if n := c.InvalidatePageCount(addr.PageNum(i % batch)); n != addr.BlocksPerPage/2 {
			b.Fatalf("invalidated %d lines, want %d", n, addr.BlocksPerPage/2)
		}
	}
}
