package kvstore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"silentshredder/internal/apprt"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/sim"
)

func testRT(t testing.TB) *apprt.Runtime {
	t.Helper()
	cfg := sim.ScaledConfig(memctrl.SilentShredder, kernel.ZeroShred, 64)
	cfg.Hier.Cores = 1
	cfg.MemPages = 1 << 16
	cfg.VerifyPlaintext = true
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.Runtime(0)
}

func TestPutGet(t *testing.T) {
	s := New(testRT(t), 64)
	s.Put(1, 100)
	s.Put(2, 200)
	if v, ok := s.Get(1); !ok || v != 100 {
		t.Fatalf("Get(1) = %v %v", v, ok)
	}
	if v, ok := s.Get(2); !ok || v != 200 {
		t.Fatalf("Get(2) = %v %v", v, ok)
	}
	if _, ok := s.Get(3); ok {
		t.Fatal("absent key found")
	}
	s.Put(1, 111) // update
	if v, _ := s.Get(1); v != 111 {
		t.Fatalf("update lost: %v", v)
	}
	if s.used != 2 {
		t.Fatalf("Len = %d", s.used)
	}
}

func TestDelete(t *testing.T) {
	s := New(testRT(t), 64)
	for k := uint64(1); k <= 30; k++ {
		s.Put(k, k*10)
	}
	if !s.Delete(7) {
		t.Fatal("delete failed")
	}
	if s.Delete(7) {
		t.Fatal("double delete succeeded")
	}
	if _, ok := s.Get(7); ok {
		t.Fatal("deleted key still present")
	}
	// Backward shift must keep every other key reachable.
	for k := uint64(1); k <= 30; k++ {
		if k == 7 {
			continue
		}
		if v, ok := s.Get(k); !ok || v != k*10 {
			t.Fatalf("key %d broken after delete: %v %v", k, v, ok)
		}
	}
	if s.used != 29 {
		t.Fatalf("Len = %d", s.used)
	}
}

func TestGrowRehashesEverything(t *testing.T) {
	rt := testRT(t)
	s := New(rt, 64)
	faults0, _ := rt.Kernel().StatsSet().Get("page_faults")
	const n = 2000
	for k := uint64(1); k <= n; k++ {
		s.Put(k, k^0xABCD)
	}
	if s.cap < n {
		t.Fatalf("cap = %d, want growth past %d", s.cap, n)
	}
	for k := uint64(1); k <= n; k++ {
		if v, ok := s.Get(k); !ok || v != k^0xABCD {
			t.Fatalf("key %d lost across growth to %d slots", k, s.cap)
		}
	}
	// Resizing churns allocations: the kernel shredded fresh pages.
	if faults, _ := rt.Kernel().StatsSet().Get("page_faults"); faults == faults0 {
		t.Fatal("no allocation churn observed")
	}
	if rt.Kernel().Controller().ShredCommands() == 0 {
		t.Fatal("resize churn must shred")
	}
}

// Property: the store agrees with a reference map under random op
// sequences (hash collisions are ~impossible at these sizes).
func TestModelBasedProperty(t *testing.T) {
	rt := testRT(t)
	f := func(ops []uint16) bool {
		s := New(rt, 64)
		defer s.Free()
		ref := map[uint64]uint64{}
		for _, op := range ops {
			key := uint64(op%97) + 1
			switch op % 3 {
			case 0:
				s.Put(key, uint64(op))
				ref[key] = uint64(op)
			case 1:
				v, ok := s.Get(key)
				rv, rok := ref[key]
				if ok != rok || (ok && v != rv) {
					return false
				}
			case 2:
				got := s.Delete(key)
				_, want := ref[key]
				delete(ref, key)
				if got != want {
					return false
				}
			}
		}
		if s.used != len(ref) {
			return false
		}
		for k, v := range ref {
			if got, ok := s.Get(k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestChurnWorkload(t *testing.T) {
	rt := testRT(t)
	hits := Churn(rt, 200, 500, 0.6, 7)
	if hits == 0 {
		t.Fatal("churn produced no successful reads")
	}
	if rt.Kernel().Controller().ShredCommands() == 0 {
		t.Fatal("churn must drive shredding")
	}
}

// The headline comparison on this workload class: resizes cost far fewer
// NVM writes under Silent Shredder.
func TestChurnWriteSavings(t *testing.T) {
	run := func(mode memctrl.Mode, zm kernel.ZeroMode) uint64 {
		cfg := sim.ScaledConfig(mode, zm, 64)
		cfg.Hier.Cores = 1
		cfg.MemPages = 1 << 16
		m := sim.MustNew(cfg)
		rt := m.Runtime(0)
		rng := rand.New(rand.NewSource(1))
		_ = rng
		Churn(rt, 400, 800, 0.5, 3)
		m.Hier.FlushAll()
		m.MC.Flush()
		return m.Dev.Writes()
	}
	ss := run(memctrl.SilentShredder, kernel.ZeroShred)
	bl := run(memctrl.Baseline, kernel.ZeroNonTemporal)
	if ss >= bl {
		t.Fatalf("SS writes %d must be below baseline %d", ss, bl)
	}
}

func BenchmarkPut(b *testing.B) {
	rt := testRT(b)
	s := New(rt, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(uint64(i%40000)+1, uint64(i))
	}
}
