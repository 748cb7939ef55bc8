package apprt

import (
	"math"

	"silentshredder/internal/addr"
)

// Array is a fixed-length array of 64-bit words living in simulated
// memory. Workloads use it for their data structures so every element
// access flows through the modeled TLB, caches and memory controller.
type Array struct {
	rt   *Runtime
	base addr.Virt
	n    int
}

// NewArray allocates an n-element array in simulated memory. Contents are
// zero (the kernel guarantees freshly allocated pages read as zeros —
// which is exactly the guarantee Silent Shredder preserves).
func NewArray(rt *Runtime, n int) Array {
	return Array{rt: rt, base: rt.Malloc(n * 8), n: n}
}

// Get loads element i.
func (a Array) Get(i int) uint64 {
	a.check(i)
	return a.rt.Load(a.base + addr.Virt(i*8))
}

// Set stores element i.
func (a Array) Set(i int, v uint64) {
	a.check(i)
	a.rt.Store(a.base+addr.Virt(i*8), v)
}

// GetF loads element i as a float64.
func (a Array) GetF(i int) float64 { return math.Float64frombits(a.Get(i)) }

// SetF stores element i as a float64.
func (a Array) SetF(i int, v float64) { a.Set(i, math.Float64bits(v)) }

// Free releases the array's memory.
func (a Array) Free() { a.rt.Free(a.base, a.n*8) }

func (a Array) check(i int) {
	if i < 0 || i >= a.n {
		panic("apprt: array index out of range")
	}
}
