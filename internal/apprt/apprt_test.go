package apprt_test

import (
	"bytes"
	"reflect"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/apprt"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/sim"
)

func testRT(t *testing.T) (*sim.Machine, *apprt.Runtime) {
	t.Helper()
	cfg := sim.ScaledConfig(memctrl.SilentShredder, kernel.ZeroShred, 64)
	cfg.Hier.Cores = 1
	cfg.MemPages = 1 << 14
	cfg.VerifyPlaintext = true
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, m.Runtime(0)
}

func TestLoadStoreRoundTrip(t *testing.T) {
	_, rt := testRT(t)
	va := rt.Malloc(addr.PageSize)
	rt.Store(va+16, 0xABCDEF)
	if got := rt.Load(va + 16); got != 0xABCDEF {
		t.Fatalf("Load = %#x", got)
	}
	if got := rt.Load(va + 24); got != 0 {
		t.Fatalf("adjacent word = %#x, want 0", got)
	}
}

func TestMallocZeroSizeStillAllocates(t *testing.T) {
	_, rt := testRT(t)
	va1 := rt.Malloc(0)
	va2 := rt.Malloc(0)
	if va1 == va2 {
		t.Fatal("allocations must not overlap")
	}
}

func TestStoreLoadBytesAcrossBlocks(t *testing.T) {
	_, rt := testRT(t)
	va := rt.Malloc(addr.PageSize)
	data := bytes.Repeat([]byte{1, 2, 3, 4, 5}, 40) // 200 bytes, crosses blocks
	rt.StoreBytes(va+60, data)                      // unaligned start
	if got := rt.LoadBytes(va+60, len(data)); !bytes.Equal(got, data) {
		t.Fatal("StoreBytes/LoadBytes round trip failed")
	}
}

func TestFreeReturnsPages(t *testing.T) {
	_, rt := testRT(t)
	va := rt.Malloc(4 * addr.PageSize)
	for i := 0; i < 4; i++ {
		rt.Store(va+addr.Virt(i*addr.PageSize), 1)
	}
	frames := func(base addr.Virt) map[addr.PageNum]bool {
		set := make(map[addr.PageNum]bool)
		for i := 0; i < 4; i++ {
			pte, _ := rt.Process().AS.Lookup((base + addr.Virt(i*addr.PageSize)).Page())
			set[pte.PPN] = true
		}
		return set
	}
	freed := frames(va)
	rt.Free(va, 4*addr.PageSize)
	// The free list is LIFO, so the next four faults take the same frames.
	vb := rt.Malloc(4 * addr.PageSize)
	for i := 0; i < 4; i++ {
		rt.Store(vb+addr.Virt(i*addr.PageSize), 1)
	}
	if got := frames(vb); len(got) != 4 || !reflect.DeepEqual(got, freed) {
		t.Fatalf("reused frames %v, want the freed %v", got, freed)
	}
}

func TestMemsetTemporalVsNT(t *testing.T) {
	m, rt := testRT(t)
	small := rt.Malloc(2 * addr.PageSize)
	rt.Memset(small, 7, 2*addr.PageSize) // below L4 size: temporal
	ntWritesAfterSmall := m.MC.DataWrites()

	big := rt.Malloc(m.Cfg.Hier.L4.Size * 2)
	rt.Memset(big, 7, m.Cfg.Hier.L4.Size*2) // above L4: non-temporal
	if m.MC.DataWrites() == ntWritesAfterSmall {
		t.Fatal("large memset must bypass caches (NT stores)")
	}
	if got := rt.LoadBytes(big+999, 3); !bytes.Equal(got, []byte{7, 7, 7}) {
		t.Fatal("memset contents wrong")
	}
}

func TestMemsetUnalignedEdges(t *testing.T) {
	_, rt := testRT(t)
	va := rt.Malloc(addr.PageSize)
	rt.Store(va, ^uint64(0))
	rt.Store(va+120, ^uint64(0))
	rt.MemsetNT(va+4, 9, 100) // unaligned head and tail
	got := rt.LoadBytes(va, 128)
	if got[3] != 0xFF || got[4] != 9 || got[103] != 9 || got[104] != 0 || got[120] != 0xFF {
		t.Fatalf("memset edges wrong: head=%v tail=%v", got[:8], got[100:126])
	}
}

func TestComputeAccounting(t *testing.T) {
	_, rt := testRT(t)
	rt.Compute(1000)
	if rt.Core().Instructions() != 1000 {
		t.Fatalf("instructions = %d", rt.Core().Instructions())
	}
}

func TestTraceHookObservesOps(t *testing.T) {
	_, rt := testRT(t)
	var ops []apprt.TraceOp
	rt.SetTraceHook(func(op apprt.TraceOp) { ops = append(ops, op) })
	va := rt.Malloc(addr.PageSize)
	rt.Store(va, 42)
	rt.Load(va)
	rt.Compute(5)
	rt.SetTraceHook(nil)
	rt.Load(va) // not traced

	kinds := []apprt.TraceKind{}
	for _, op := range ops {
		kinds = append(kinds, op.Kind)
	}
	want := []apprt.TraceKind{apprt.TraceMalloc, apprt.TraceStore, apprt.TraceLoad, apprt.TraceCompute}
	if len(kinds) != len(want) {
		t.Fatalf("ops = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("op %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	if ops[1].Arg != 42 || ops[2].VA != va {
		t.Fatal("trace payloads wrong")
	}
}

func TestArray(t *testing.T) {
	_, rt := testRT(t)
	a := apprt.NewArray(rt, 100)
	for i := 0; i < 100; i++ {
		if a.Get(i) != 0 {
			t.Fatal("fresh array must read zero")
		}
	}
	a.Set(7, 123)
	a.SetF(8, 3.5)
	if a.Get(7) != 123 || a.GetF(8) != 3.5 {
		t.Fatal("array round trip failed")
	}
	a.Free()
}

func TestArrayBoundsPanics(t *testing.T) {
	_, rt := testRT(t)
	a := apprt.NewArray(rt, 4)
	for _, fn := range []func(){
		func() { a.Get(-1) },
		func() { a.Get(4) },
		func() { a.Set(4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			fn()
		}()
	}
}

func TestShredRangeZeroesThroughRuntime(t *testing.T) {
	_, rt := testRT(t)
	va := rt.Malloc(2 * addr.PageSize)
	rt.StoreBytes(va, []byte("sensitive"))
	rt.ShredRange(va, 2)
	if got := rt.LoadBytes(va, 9); !bytes.Equal(got, make([]byte, 9)) {
		t.Fatalf("after shred: %q", got)
	}
}

// Load and Store on a resident page allocate nothing when no checker is
// attached: the word moves straight between the value and the image.
func TestLoadStoreZeroAllocs(t *testing.T) {
	_, rt := testRT(t)
	va := rt.Malloc(addr.PageSize)
	rt.Store(va, 1) // fault the page in and materialize it
	i := 0
	word := func() addr.Virt { i++; return va + addr.Virt(i%(addr.PageSize/8)*8) }
	if n := testing.AllocsPerRun(500, func() { rt.Store(word(), uint64(i)) }); n != 0 {
		t.Errorf("Store: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(500, func() { _ = rt.Load(word()) }); n != 0 {
		t.Errorf("Load: %v allocs/op, want 0", n)
	}
}
