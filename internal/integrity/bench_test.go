package integrity

import (
	"fmt"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/ctr"
)

// Every timed unit below ends with an observation (Root or Verify), so
// the eager engine's deferred host rehash is timed with the updates that
// caused it. BenchmarkUpdate is one uncoalesced update: the leaf hash
// plus its settle.
func BenchmarkUpdate(b *testing.B) {
	t := NewTree(DefaultConfig())
	var blk [ctr.CounterBlockSize]byte
	for i := 0; i < b.N; i++ {
		blk[0] = byte(i)
		t.Update(addr.PageNum(i%4096), blk)
		t.Root()
	}
}

func BenchmarkVerify(b *testing.B) {
	t := NewTree(DefaultConfig())
	var blk [ctr.CounterBlockSize]byte
	t.Update(7, blk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Verify(7, blk)
	}
}

// benchEngines runs fn once per engine kind as a sub-benchmark, so every
// engine benchmark below reports an eager/cached pair.
func benchEngines(b *testing.B, fn func(b *testing.B, e Engine)) {
	for _, kind := range []EngineKind{EngineEager, EngineCached} {
		b.Run(kind.String(), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Engine = kind
			fn(b, New(cfg))
		})
	}
}

// The streaming write path: bursts of updates across a hot page set with
// a persist barrier per burst — the coalescing case the lazy engine is
// built for.
func BenchmarkEngineUpdateBurst(b *testing.B) {
	benchEngines(b, func(b *testing.B, e Engine) {
		var blk [ctr.CounterBlockSize]byte
		for i := 0; i < b.N; i++ {
			blk[0] = byte(i)
			e.Update(addr.PageNum(i%64), blk)
			if i%1024 == 1023 {
				e.PersistBarrier()
				e.Root()
			}
		}
		e.PersistBarrier()
		e.Root()
	})
}

// The counter-fetch read path: repeated verification of a settled page.
func BenchmarkEngineVerifyHit(b *testing.B) {
	benchEngines(b, func(b *testing.B, e Engine) {
		var blk [ctr.CounterBlockSize]byte
		e.Update(7, blk)
		e.PersistBarrier()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ok, _ := e.Verify(7, blk); !ok {
				b.Fatal("settled page must verify")
			}
		}
	})
}

// The persist-barrier path itself: dirty a spread of leaves, then drain
// them in one coalesced batch (the cached engine's deferred work, and
// the eager engine's deferred host rehash).
func BenchmarkEngineCoalescedFlush(b *testing.B) {
	for _, leaves := range []int{16, 256} {
		b.Run(fmt.Sprintf("leaves%d", leaves), func(b *testing.B) {
			benchEngines(b, func(b *testing.B, e Engine) {
				var blk [ctr.CounterBlockSize]byte
				for i := 0; i < b.N; i++ {
					blk[0] = byte(i)
					for l := 0; l < leaves; l++ {
						e.Update(addr.PageNum(l*37), blk)
					}
					e.PersistBarrier()
					e.Root()
				}
			})
		})
	}
}

// The end-of-run write-back burst of a graph workload: every dirty line
// of about 300 pages is written back, 60 counter updates per page with
// the pages interleaved, and then one barrier persists the counters.
func BenchmarkEngineWritebackFlush(b *testing.B) {
	const pages, perPage = 300, 60
	benchEngines(b, func(b *testing.B, e Engine) {
		var blk [ctr.CounterBlockSize]byte
		for i := 0; i < b.N; i++ {
			for u := 0; u < perPage; u++ {
				blk[0] = byte(i + u)
				for p := 0; p < pages; p++ {
					e.Update(addr.PageNum(4096+p*5), blk)
				}
			}
			e.PersistBarrier()
			e.Root()
		}
	})
}
