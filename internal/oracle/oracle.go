// Package oracle is an untimed, pure-functional reference model of the
// *architectural* memory contract the simulated machine must honor.
//
// The paper's central claim (§4.2) is semantic equivalence: incrementing a
// page's major counter and resetting its minor counters to the reserved
// value must be indistinguishable — to software — from physically writing
// zeros over the page. The oracle encodes what "indistinguishable" means,
// with no caches, no counters, no encryption and no timing:
//
//   - a process's memory is a flat virtual byte array, zero on first touch
//     (the CoW zero-page contract: reads of untouched pages return zeros);
//   - a Store/Memset/StoreBytes updates exactly the bytes it names;
//   - Free and ShredRange zero the named range (released or shredded
//     memory must never again yield its previous contents);
//   - every Load must return exactly the bytes this model predicts.
//
// The oracle consumes the same apprt.TraceOp stream the real machine
// executes, so any machine configuration — baseline with non-temporal
// zeroing, Silent Shredder with the shred command, DEUCE, integrity tree,
// any cache geometry — can be cross-checked against it load by load. A
// divergence means the machine violated the software-visible contract:
// either it leaked pre-shred plaintext (the security failure the paper's
// related work documents) or it lost architectural data.
//
// The model is per-process: virtual addresses are the keys, so it is
// independent of physical page allocation, reuse order and shredding
// mechanism — which is exactly what makes it a *differential* oracle
// between controller personalities.
//
// Scope: the contract is only meaningful when the kernel actually clears
// reallocated pages (any mode but ZeroNone) and, for Silent Shredder, with
// the reserve-zero shred encoding (the §4.2 inc-minors/inc-major variants
// deliberately leave shredded pages reading as scrambled bits, which the
// paper rejects for exactly this reason). internal/sim enforces those
// preconditions when check mode is enabled.
package oracle

import (
	"fmt"

	"silentshredder/internal/addr"
	"silentshredder/internal/apprt"
)

// Oracle is the reference model for one process's address space.
type Oracle struct {
	mem map[addr.VPageNum]*[addr.PageSize]byte
	gen map[addr.VPageNum]uint64 // shred generation per virtual page

	checks uint64
}

// New creates an empty oracle (all memory reads as zeros).
func New() *Oracle {
	return &Oracle{
		mem: make(map[addr.VPageNum]*[addr.PageSize]byte),
		gen: make(map[addr.VPageNum]uint64),
	}
}

// page returns the backing array for vpn, materializing it on demand.
func (o *Oracle) page(vpn addr.VPageNum) *[addr.PageSize]byte {
	pg, ok := o.mem[vpn]
	if !ok {
		pg = new([addr.PageSize]byte)
		o.mem[vpn] = pg
	}
	return pg
}

// write copies data to va. Spans pages transparently (virtually
// contiguous, which is the architectural contract; physical contiguity is
// the machine's problem).
func (o *Oracle) write(va addr.Virt, data []byte) {
	for len(data) > 0 {
		pg := o.page(va.Page())
		off := int(va.PageOffset())
		n := addr.PageSize - off
		if n > len(data) {
			n = len(data)
		}
		copy(pg[off:off+n], data[:n])
		data = data[n:]
		va += addr.Virt(n)
	}
}

// Read returns the n expected bytes at va.
func (o *Oracle) Read(va addr.Virt, n int) []byte {
	out := make([]byte, n)
	dst := out
	for len(dst) > 0 {
		off := int(va.PageOffset())
		c := addr.PageSize - off
		if c > len(dst) {
			c = len(dst)
		}
		if pg, ok := o.mem[va.Page()]; ok {
			copy(dst[:c], pg[off:off+c])
		} // else: zeros (untouched memory)
		dst = dst[c:]
		va += addr.Virt(c)
	}
	return out
}

// ZeroRange zeroes npages of virtual address space starting at va's page
// and bumps each page's shred generation. This is the architectural
// meaning of releasing or shredding memory: whatever was there is gone,
// and the next read returns zeros.
func (o *Oracle) ZeroRange(va addr.Virt, npages int) {
	vpn := va.Page()
	for i := 0; i < npages; i++ {
		v := vpn + addr.VPageNum(i)
		if pg, ok := o.mem[v]; ok {
			*pg = [addr.PageSize]byte{}
		}
		o.gen[v]++
	}
}

// Pages returns the number of materialized pages.
func (o *Oracle) Pages() int { return len(o.mem) }

// LoadsChecked returns the number of loads validated via CheckLoad/CheckBytes.
func (o *Oracle) LoadsChecked() uint64 { return o.checks }

// Observe applies one traced operation to the model. Loads are no-ops
// here (they are validated separately via CheckLoad); Malloc is a no-op
// because untouched memory already reads as zeros and the kernel's mmap
// cursor never reuses virtual addresses.
func (o *Oracle) Observe(op apprt.TraceOp) {
	switch op.Kind {
	case apprt.TraceStore:
		// An 8-byte store. The machine translates only the first byte's
		// page, so a page-crossing store would write physically contiguous
		// bytes that need not be virtually contiguous; the model mirrors
		// the in-page portion (the spill targets no well-defined virtual
		// address and is excluded from checking — see CheckLoad).
		var b [8]byte
		putU64(b[:], op.Arg)
		n := 8
		if rem := addr.PageSize - int(op.VA.PageOffset()); rem < n {
			n = rem
		}
		o.write(op.VA, b[:n])
	case apprt.TraceMemset:
		// Arg packs size<<9 | nonTemporal<<8 | value (see apprt.memset).
		size := int(op.Arg >> 9)
		val := byte(op.Arg)
		o.memset(op.VA, val, size)
	case apprt.TraceFree:
		npages := (int(op.Arg) + addr.PageSize - 1) / addr.PageSize
		if npages == 0 {
			npages = 1
		}
		o.ZeroRange(op.VA, npages)
	case apprt.TraceShredRange:
		o.ZeroRange(op.VA, int(op.Arg))
	case apprt.TraceLoad, apprt.TraceCompute, apprt.TraceMalloc:
		// No architectural state change.
	}
}

// ObserveStoreBytes applies a bulk store (apprt.StoreBytes has no single
// trace record; the runtime reports it chunk by chunk).
func (o *Oracle) ObserveStoreBytes(va addr.Virt, data []byte) {
	o.write(va, data)
}

func (o *Oracle) memset(va addr.Virt, b byte, n int) {
	for n > 0 {
		pg := o.page(va.Page())
		off := int(va.PageOffset())
		c := addr.PageSize - off
		if c > n {
			c = n
		}
		for i := off; i < off+c; i++ {
			pg[i] = b
		}
		n -= c
		va += addr.Virt(c)
	}
}

// CheckLoad validates an 8-byte load result against the model. Loads
// whose 8 bytes cross a page boundary are skipped (the machine reads them
// physically contiguously after translating only the first page, so no
// virtual-space expectation exists; block-granular paths never cross).
func (o *Oracle) CheckLoad(va addr.Virt, got []byte) error {
	if int(va.PageOffset())+len(got) > addr.PageSize {
		return nil
	}
	return o.CheckBytes(va, got)
}

// CheckBytes validates an arbitrary-length read result against the model,
// returning a descriptive error on the first mismatching byte.
func (o *Oracle) CheckBytes(va addr.Virt, got []byte) error {
	o.checks++
	want := o.Read(va, len(got))
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf(
				"oracle: load mismatch at %v+%d (page %v, shred generation %d): machine returned %#02x, contract requires %#02x (machine %x, oracle %x)",
				va, i, va.Page(), o.gen[va.Page()], got[i], want[i], got, want)
		}
	}
	return nil
}

// CheckPage compares a full page's architectural contents against the
// model (nil got means "machine says the page reads as zeros").
func (o *Oracle) CheckPage(vpn addr.VPageNum, got *[addr.PageSize]byte) error {
	pg := o.mem[vpn]
	for i := 0; i < addr.PageSize; i++ {
		var g, w byte
		if got != nil {
			g = got[i]
		}
		if pg != nil {
			w = pg[i]
		}
		if g != w {
			return fmt.Errorf(
				"oracle: page %v byte %d (shred generation %d): machine holds %#02x, contract requires %#02x",
				vpn, i, o.gen[vpn], g, w)
		}
	}
	return nil
}

// ForEachPage calls fn for every materialized page of the model.
func (o *Oracle) ForEachPage(fn func(vpn addr.VPageNum, data *[addr.PageSize]byte)) {
	for vpn, pg := range o.mem {
		fn(vpn, pg)
	}
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
