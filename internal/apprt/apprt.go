// Package apprt is the runtime that simulated applications execute
// against. It provides the memory operations a program performs — loads,
// stores, memset, allocation — and routes each through the full machine:
// TLB translation and page faults in the kernel, the cache hierarchy and
// coherence, and the secure memory controller, while charging the issuing
// core's timing model.
//
// A workload is just Go code calling these methods; the simulator's
// fidelity comes from every byte it touches flowing through the modeled
// system, the way a gem5 binary's memory accesses do.
package apprt

import (
	"encoding/binary"
	"fmt"

	"silentshredder/internal/addr"
	"silentshredder/internal/clock"
	"silentshredder/internal/cpu"
	"silentshredder/internal/kernel"
	"silentshredder/internal/mmu"
	"silentshredder/internal/physmem"
	"silentshredder/internal/span"
)

// Runtime binds a process to a core.
type Runtime struct {
	k    *kernel.Kernel
	core int
	proc *kernel.Process
	cpu  *cpu.Core
	img  *physmem.Image // the controller's plaintext image

	// storeOccupancy is the core-visible cost of an ordinary store (the
	// write buffer hides the rest).
	storeOccupancy clock.Cycles

	// trace, when set, observes every operation the program performs
	// (see internal/trace for the record format and replayer).
	trace func(op TraceOp)

	// check, when set, receives every operation *and* every load result
	// for architectural cross-checking (see internal/oracle). It is
	// deliberately a separate hook from trace: the experiment harness
	// repurposes the trace hook for cooperative scheduling, and checking
	// must survive that.
	check Checker

	// obsHook, when set, fires before every operation so the machine's
	// observability layer can update its notion of time (core + cycle
	// count) and take epoch samples. Like check, it is separate from
	// trace so cooperative scheduling cannot displace it.
	obsHook func()

	// spans, when set, opens a latency-provenance span around every
	// memory operation: translation cycles attribute to the mmu layer,
	// the hierarchy's residual to the cache layer, and deeper layers
	// credit themselves as the access descends. A nil recorder costs
	// nothing (every call is a nil-receiver no-op).
	spans *span.Recorder

	// Per-runtime scratch buffers keep the per-block byte-shuffling paths
	// allocation-free (a Runtime is single-threaded by construction).
	pattern  [addr.BlockSize]byte // memset fill pattern
	blockBuf [addr.BlockSize]byte // LoadBytes per-block staging
	wordBuf  [8]byte              // Load staging for the checker (a local
	// would escape: the hook takes the slice through an interface)
}

// Checker observes a runtime's operations and validates its load results
// against an architectural reference model. Implementations should fail
// loudly (panic or test failure) on a contract violation; the runtime
// does not interpret return values.
type Checker interface {
	// Observe is called for every traced operation, before it executes.
	Observe(op TraceOp)
	// ObserveStoreBytes reports a bulk store chunk (StoreBytes has no
	// single trace record).
	ObserveStoreBytes(va addr.Virt, data []byte)
	// CheckLoad receives the bytes a load returned, after it executed.
	CheckLoad(va addr.Virt, got []byte)
}

// TraceKind identifies a traced operation.
type TraceKind uint8

// Trace operation kinds.
const (
	TraceLoad TraceKind = iota + 1
	TraceStore
	TraceCompute
	TraceMalloc
	TraceFree
	TraceMemset
	TraceShredRange
)

// TraceOp is one observed program operation. Arg is size for
// Malloc/Free/Memset, the instruction count for Compute, the page count
// for ShredRange, and unused otherwise.
type TraceOp struct {
	Kind TraceKind
	VA   addr.Virt
	Arg  uint64
}

// Apply executes one trace operation against the runtime — the inverse
// of the trace hook. Memset records carry the value and temporal/NT
// choice packed in Arg (size<<9 | nt<<8 | value). trace.Replay and the
// crash-anywhere harness both drive machines through this dispatch.
func (rt *Runtime) Apply(op TraceOp) error {
	// A replayed address comes from outside the program: reject one the
	// page tables cannot map, on which mmu.AddressSpace.Map panics.
	if op.VA >= mmu.VirtLimit || op.Kind == TraceMemset && op.Arg>>9 > uint64(mmu.VirtLimit-op.VA) {
		return fmt.Errorf("apprt: trace operation at %v reaches past %v, the end of the virtual address space", op.VA, mmu.VirtLimit)
	}
	switch op.Kind {
	case TraceLoad:
		rt.Load(op.VA)
	case TraceStore:
		rt.Store(op.VA, op.Arg)
	case TraceCompute:
		rt.Compute(op.Arg)
	case TraceMalloc:
		base := rt.Malloc(int(op.Arg))
		if base != op.VA {
			return fmt.Errorf("apprt: replay allocated %v, trace expects %v (machine layout differs)", base, op.VA)
		}
	case TraceFree:
		rt.Free(op.VA, int(op.Arg))
	case TraceMemset:
		size := int(op.Arg >> 9)
		if op.Arg>>8&1 == 1 {
			rt.MemsetNT(op.VA, byte(op.Arg), size)
		} else {
			rt.Memset(op.VA, byte(op.Arg), size)
		}
	case TraceShredRange:
		rt.ShredRange(op.VA, int(op.Arg))
	default:
		return fmt.Errorf("apprt: unknown trace op kind %d", op.Kind)
	}
	return nil
}

// SetTraceHook installs fn as the operation observer (nil disables).
func (rt *Runtime) SetTraceHook(fn func(op TraceOp)) { rt.trace = fn }

// SetChecker installs c as the architectural checker (nil disables).
func (rt *Runtime) SetChecker(c Checker) { rt.check = c }

// SetObsHook installs fn as the pre-operation observability hook (nil
// disables).
func (rt *Runtime) SetObsHook(fn func()) { rt.obsHook = fn }

// SetSpans attaches the latency-provenance recorder (nil disables).
func (rt *Runtime) SetSpans(r *span.Recorder) { rt.spans = r }

func (rt *Runtime) emit(kind TraceKind, va addr.Virt, arg uint64) {
	if rt.obsHook != nil {
		rt.obsHook()
	}
	if rt.trace != nil {
		rt.trace(TraceOp{Kind: kind, VA: va, Arg: arg})
	}
	if rt.check != nil {
		rt.check.Observe(TraceOp{Kind: kind, VA: va, Arg: arg})
	}
}

// New creates a runtime for proc running on the given core.
func New(k *kernel.Kernel, core int, proc *kernel.Process, c *cpu.Core) *Runtime {
	return &Runtime{k: k, core: core, proc: proc, cpu: c, img: k.Controller().Image(), storeOccupancy: 2}
}

// Core returns the core's timing model.
func (rt *Runtime) Core() *cpu.Core { return rt.cpu }

// Process returns the bound process.
func (rt *Runtime) Process() *kernel.Process { return rt.proc }

// Kernel returns the kernel.
func (rt *Runtime) Kernel() *kernel.Kernel { return rt.k }

// Compute retires n non-memory instructions.
func (rt *Runtime) Compute(n uint64) {
	rt.emit(TraceCompute, 0, n)
	rt.cpu.Compute(n)
}

// Malloc allocates size bytes (page granular) and returns the virtual
// base address. Memory is untouched — zero-filled on first use, exactly
// like anonymous mmap.
func (rt *Runtime) Malloc(size int) addr.Virt {
	npages := (size + addr.PageSize - 1) / addr.PageSize
	if npages == 0 {
		npages = 1
	}
	base := rt.k.Mmap(rt.proc, npages)
	rt.emit(TraceMalloc, base, uint64(size))
	return base
}

// Free releases the allocation at va spanning size bytes.
func (rt *Runtime) Free(va addr.Virt, size int) {
	rt.emit(TraceFree, va, uint64(size))
	npages := (size + addr.PageSize - 1) / addr.PageSize
	rt.k.Munmap(rt.proc, va, npages)
}

// Load performs an 8-byte load and returns the value.
func (rt *Runtime) Load(va addr.Virt) uint64 {
	rt.emit(TraceLoad, va, 0)
	rt.spans.Begin(span.OpRead, uint64(va))
	mk := rt.spans.Mark()
	pa, klat := rt.k.Translate(rt.core, rt.proc, va, false)
	rt.spans.Attribute(span.LayerMMU, uint64(klat), mk)
	mk = rt.spans.Mark()
	hlat := rt.k.Hierarchy().Read(rt.core, pa)
	rt.spans.Attribute(span.LayerCache, uint64(hlat), mk)
	lat := klat + hlat
	rt.spans.End(uint64(lat))
	rt.cpu.Load(lat)
	v := rt.img.ReadU64(pa)
	if rt.check != nil {
		b := rt.wordBuf[:]
		binary.LittleEndian.PutUint64(b, v)
		rt.check.CheckLoad(va, b)
	}
	return v
}

// Store performs an 8-byte store.
func (rt *Runtime) Store(va addr.Virt, val uint64) {
	rt.emit(TraceStore, va, val)
	rt.spans.Begin(span.OpWrite, uint64(va))
	mk := rt.spans.Mark()
	pa, klat := rt.k.Translate(rt.core, rt.proc, va, true)
	rt.spans.Attribute(span.LayerMMU, uint64(klat), mk)
	mk = rt.spans.Mark()
	hlat := rt.k.Hierarchy().Write(rt.core, pa)
	rt.spans.Attribute(span.LayerCache, uint64(hlat), mk)
	// The span totals the core-visible cost; the hierarchy's busy
	// cycles live in the segments (the write buffer hides them).
	rt.spans.End(uint64(klat) + uint64(rt.storeOccupancy))
	rt.img.WriteU64(pa, val)
	if klat > 0 {
		rt.cpu.Stall(klat) // page-fault / TLB-walk time
	}
	rt.cpu.Store(rt.storeOccupancy)
}

// LoadBytes reads n bytes starting at va, touching every block.
func (rt *Runtime) LoadBytes(va addr.Virt, n int) []byte {
	out := make([]byte, 0, n)
	addr.BlockRange(va, n, func(blk addr.Virt, off, cnt int) {
		if rt.obsHook != nil {
			rt.obsHook()
		}
		rt.spans.Begin(span.OpRead, uint64(blk)+uint64(off))
		mk := rt.spans.Mark()
		pa, klat := rt.k.Translate(rt.core, rt.proc, blk+addr.Virt(off), false)
		rt.spans.Attribute(span.LayerMMU, uint64(klat), mk)
		mk = rt.spans.Mark()
		hlat := rt.k.Hierarchy().Read(rt.core, pa)
		rt.spans.Attribute(span.LayerCache, uint64(hlat), mk)
		lat := klat + hlat
		rt.spans.End(uint64(lat))
		rt.cpu.Load(lat)
		buf := rt.blockBuf[:cnt]
		rt.img.Read(pa, buf)
		if rt.check != nil {
			rt.check.CheckLoad(blk+addr.Virt(off), buf)
		}
		out = append(out, buf...)
	})
	return out
}

// StoreBytes writes data starting at va, touching every block.
func (rt *Runtime) StoreBytes(va addr.Virt, data []byte) {
	addr.BlockRange(va, len(data), func(blk addr.Virt, off, cnt int) {
		if rt.obsHook != nil {
			rt.obsHook()
		}
		rt.spans.Begin(span.OpWrite, uint64(blk)+uint64(off))
		mk := rt.spans.Mark()
		pa, klat := rt.k.Translate(rt.core, rt.proc, blk+addr.Virt(off), true)
		rt.spans.Attribute(span.LayerMMU, uint64(klat), mk)
		mk = rt.spans.Mark()
		hlat := rt.k.Hierarchy().Write(rt.core, pa)
		rt.spans.Attribute(span.LayerCache, uint64(hlat), mk)
		rt.spans.End(uint64(klat) + uint64(rt.storeOccupancy))
		rt.img.Write(pa, data[:cnt])
		if rt.check != nil {
			rt.check.ObserveStoreBytes(blk+addr.Virt(off), data[:cnt])
		}
		data = data[cnt:]
		if klat > 0 {
			rt.cpu.Stall(klat)
		}
		rt.cpu.Store(rt.storeOccupancy)
	})
}

// Memset sets n bytes at va to b. Like glibc, it uses non-temporal
// stores when the region exceeds the last-level cache (avoiding
// pollution) and temporal stores otherwise. The instruction stream is
// modeled as one 8-byte store per 8 bytes.
func (rt *Runtime) Memset(va addr.Virt, b byte, n int) {
	nt := n > rt.k.Hierarchy().Config().L4.Size
	rt.memset(va, b, n, nt)
}

// MemsetNT is Memset with non-temporal stores regardless of size.
func (rt *Runtime) MemsetNT(va addr.Virt, b byte, n int) {
	rt.memset(va, b, n, true)
}

func (rt *Runtime) memset(va addr.Virt, b byte, n int, nonTemporal bool) {
	nt := uint64(0)
	if nonTemporal {
		nt = 1
	}
	rt.emit(TraceMemset, va, uint64(n)<<9|nt<<8|uint64(b))
	img := rt.img
	pattern := rt.pattern[:]
	for i := range pattern {
		pattern[i] = b
	}
	addr.BlockRange(va, n, func(blk addr.Virt, off, cnt int) {
		rt.spans.Begin(span.OpWrite, uint64(blk)+uint64(off))
		mk := rt.spans.Mark()
		pa, klat := rt.k.Translate(rt.core, rt.proc, blk+addr.Virt(off), true)
		rt.spans.Attribute(span.LayerMMU, uint64(klat), mk)
		if klat > 0 {
			rt.cpu.Stall(klat)
		}
		var occ clock.Cycles
		if nonTemporal && off == 0 && cnt == addr.BlockSize {
			img.Write(pa, pattern)
			mk = rt.spans.Mark()
			occ = rt.k.Hierarchy().WriteNonTemporal(pa)
			rt.spans.Attribute(span.LayerCache, uint64(occ), mk)
			rt.cpu.Store(occ)
		} else {
			mk = rt.spans.Mark()
			hlat := rt.k.Hierarchy().Write(rt.core, pa)
			rt.spans.Attribute(span.LayerCache, uint64(hlat), mk)
			img.Write(pa, pattern[:cnt])
			occ = rt.storeOccupancy
			rt.cpu.Store(occ)
		}
		rt.spans.End(uint64(klat) + uint64(occ))
		// The remaining stores of the block are part of the unrolled
		// loop: they retire without additional memory traffic.
		extra := uint64((cnt + 7) / 8)
		if extra > 1 {
			rt.cpu.Compute(extra - 1)
		}
	})
}

// ShredRange asks the kernel to bulk-zero npages at va via the shred
// syscall (§7.2 use case: user-level large data initialization).
func (rt *Runtime) ShredRange(va addr.Virt, npages int) {
	rt.emit(TraceShredRange, va, uint64(npages))
	lat := rt.k.ShredRange(rt.core, rt.proc, va, npages)
	rt.cpu.Stall(lat)
}
