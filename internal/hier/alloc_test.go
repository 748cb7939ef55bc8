package hier

import (
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/cache"
	"silentshredder/internal/memctrl"
)

// The tag-store operations allocate nothing, and neither does a shred
// once the directory records of the pages in use exist.
func TestShredPathZeroAllocs(t *testing.T) {
	const runs = 200
	zero := func(name string, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(runs, f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}

	// 64 pages of blocks over a 1024-way cache: filling it evicts.
	const pages = 64
	c := cache.New(cache.Config{Name: "c", Size: 64 << 10, Assoc: 8})
	blk := func(i int) addr.Phys {
		return addr.PageNum(i / addr.BlocksPerPage % pages).BlockAddr(i % addr.BlocksPerPage)
	}
	for i := 0; i < pages*addr.BlocksPerPage; i++ {
		c.Insert(blk(i), cache.Shared, false)
	}

	i, got := 0, 0
	zero("Insert with eviction", func() {
		if _, evicted := c.Insert(blk(i), cache.Exclusive, i%2 == 0); evicted {
			got++
		}
		i++
	})
	if got != runs+1 {
		t.Fatalf("inserts evicted %d lines, want %d", got, runs+1)
	}
	hits, k := 0, i
	zero("Probe+SetDirty", func() {
		k--
		if w := c.Probe(blk(k)); w != nil {
			w.SetDirty(true)
			hits++
		}
	})
	if hits != runs+1 {
		t.Fatalf("Probe found %d of %d freshly inserted blocks", hits, runs+1)
	}
	removed := 0
	zero("Invalidate", func() {
		i--
		if _, ok := c.Invalidate(blk(i)); ok {
			removed++
		}
	})
	if removed != runs+1 {
		t.Fatalf("Invalidate removed %d of %d freshly inserted blocks", removed, runs+1)
	}
	c.FlushAll(nil)
	removed = 0
	zero("InvalidatePageCount", func() {
		p := addr.PageNum(i % pages)
		for j := 0; j < addr.BlocksPerPage; j += 2 {
			c.Insert(p.BlockAddr(j), cache.Shared, false)
		}
		removed += c.InvalidatePageCount(p)
		i++
	})
	if want := (runs + 1) * addr.BlocksPerPage / 2; removed != want {
		t.Fatalf("InvalidatePageCount removed %d lines, want %d", removed, want)
	}

	// Shred pages core 0 read four blocks of: each shred finds them in
	// its L1 and L2 and the shared L3 and L4. The blocks' offsets rotate
	// so that the pages spread over all of L1's sets and none is evicted.
	h, _, _ := newHier(t, Table1Config(2), memctrl.SilentShredder)
	for p := addr.PageNum(0); p <= runs; p++ {
		for j := 0; j < 4; j++ {
			h.Read(0, p.BlockAddr((4*int(p/2)+j)%addr.BlocksPerPage))
		}
	}
	p, msgs := addr.PageNum(0), 0
	zero("ShredInvalidate", func() { msgs += h.ShredInvalidate(p); p++ })
	if want := (runs + 1) * 8; msgs != want {
		t.Fatalf("shreds sent %d invalidations, want %d", msgs, want)
	}

	// Once the directory chunks exist, the read and write paths keep
	// their chunk pointers off the heap. Core 0 walks four pages round a
	// two-core tiny hierarchy whose L4 holds one page, so every read
	// misses every level and its L3 and L4 fills evict; one walk first
	// allocates the directory chunks the timed reads use.
	th, tmc, _ := newHier(t, tinyConfig(2), memctrl.SilentShredder)
	const walk = 4 * addr.BlocksPerPage
	for j := 0; j < walk; j++ {
		th.Read(0, addr.Phys(j)<<addr.BlockShift)
	}
	// L3 is full, so each of its misses fills over a victim.
	j, misses, l3miss := walk, th.llcMisses.Value(), th.L3().Misses()
	zero("Read missing every level", func() { th.Read(0, addr.Phys(j%walk)<<addr.BlockShift); j++ })
	if th.llcMisses.Value()-misses != runs+1 || th.L3().Misses()-l3miss != runs+1 {
		t.Fatalf("reads missed the LLC %d times and L3 %d times, want %d each",
			th.llcMisses.Value()-misses, th.L3().Misses()-l3miss, runs+1)
	}
	// Core 1 reads sixteen blocks: its L2 holds all of them, and its L1,
	// four sets of two ways, only the last two of each set, so reading
	// them again in order misses L1 and hits L2 every time.
	for j := 0; j < 16; j++ {
		th.Read(1, addr.Phys(j)<<addr.BlockShift)
	}
	j, l2hits := 0, th.L2(1).Hits()
	zero("Read hitting L2", func() { th.Read(1, addr.Phys(j%16)<<addr.BlockShift); j++ })
	if got := th.L2(1).Hits() - l2hits; got != runs+1 {
		t.Fatalf("reads hit L2 %d times, want %d", got, runs+1)
	}
	// Core 0 writes the four pages it walked: each write finds the block
	// in neither private cache and write-allocates from NVM, evicting
	// dirty lines. One walk first dirties every level.
	for j := 0; j < walk; j++ {
		th.Write(0, addr.Phys(j)<<addr.BlockShift)
	}
	j, misses = 0, th.llcMisses.Value()
	zero("Write allocating", func() { th.Write(0, addr.Phys(j%walk)<<addr.BlockShift); j++ })
	if got := th.llcMisses.Value() - misses; got != runs+1 {
		t.Fatalf("writes missed the LLC %d times, want %d", got, runs+1)
	}
	th.Write(1, 0x40)
	zero("owned Write", func() { th.Write(1, 0x40) })
	th.Write(1, 0x80)
	k, inv := 0, th.invalidations.Value()
	zero("Write taking ownership", func() { th.Write(k&1, 0x80); k++ })
	if got := th.invalidations.Value() - inv; got != runs+1 {
		t.Fatalf("ownership-taking writes sent %d invalidations, want %d", got, runs+1)
	}
	// A flush hands each cache's dirty lines to the write-back one at a
	// time. Each timed run first dirties eight consecutive blocks, which
	// fill core 0's L1 without evicting, so the flush writes back eight.
	// (Every 127th write-back of a block re-encrypts its page, 64 more
	// data writes.)
	th.FlushAll()
	wb, reenc := tmc.DataWrites(), tmc.Reencryptions()
	zero("FlushAll", func() {
		for j := 0; j < 8; j++ {
			th.Write(0, addr.Phys(j)<<addr.BlockShift)
		}
		th.FlushAll()
	})
	want := 8*(runs+1) + addr.BlocksPerPage*(tmc.Reencryptions()-reenc)
	if got := tmc.DataWrites() - wb; got != want {
		t.Fatalf("flushes wrote back %d blocks, want %d", got, want)
	}
}
