package kernel

import (
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/cache"
	"silentshredder/internal/hier"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/nvm"
	"silentshredder/internal/physmem"
)

func benchKernel(b *testing.B, mcMode memctrl.Mode, zm ZeroMode) *Kernel {
	b.Helper()
	dev := nvm.New(nvm.DefaultConfig())
	mc, err := memctrl.New(memctrl.DefaultConfig(mcMode), dev, physmem.New(false))
	if err != nil {
		b.Fatal(err)
	}
	hcfg := hier.Config{
		Cores:            2,
		L1:               cache.Config{Name: "l1", Size: 8 << 10, Assoc: 8, HitLatency: 2},
		L2:               cache.Config{Name: "l2", Size: 64 << 10, Assoc: 8, HitLatency: 8},
		L3:               cache.Config{Name: "l3", Size: 1 << 20, Assoc: 8, HitLatency: 25},
		L4:               cache.Config{Name: "l4", Size: 8 << 20, Assoc: 8, HitLatency: 35},
		CoherencePenalty: 25, NTStoreCycles: 5,
	}
	k, err := New(zm, hier.New(hcfg, mc), NewLinearSource(0, 1<<22))
	if err != nil {
		b.Fatal(err)
	}
	return k
}

// The headline microcost: one page fault including shredding.
func BenchmarkFaultPathShred(b *testing.B) {
	k := benchKernel(b, memctrl.SilentShredder, ZeroShred)
	p := k.NewProcess()
	base := k.Mmap(p, b.N+1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Translate(0, p, base+addr.Virt(i)*addr.PageSize, true)
	}
}

func BenchmarkFaultPathNonTemporal(b *testing.B) {
	k := benchKernel(b, memctrl.Baseline, ZeroNonTemporal)
	p := k.NewProcess()
	base := k.Mmap(p, b.N+1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Translate(0, p, base+addr.Virt(i)*addr.PageSize, true)
	}
}

func BenchmarkTranslateWarm(b *testing.B) {
	k := benchKernel(b, memctrl.SilentShredder, ZeroShred)
	p := k.NewProcess()
	va := k.Mmap(p, 1)
	k.Translate(0, p, va, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Translate(0, p, va, false)
	}
}
