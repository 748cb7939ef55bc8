// ECC and graceful line retirement — the controller's answer to an
// imperfect device.
//
// Real NVM DIMMs store a SECDED code word per 64B line: single delivered
// bit errors are corrected transparently, double errors are detected and
// raised as machine-check exceptions. This file models that layer at the
// syndrome level: the device (via internal/fault) reports how many bits
// of a delivered read differ from the stored code word, and the
// controller turns that syndrome into
//
//   - a correction (1 flipped bit): the stored code word is re-read, the
//     delivered copy repaired, and the event counted. A line that keeps
//     needing correction has a permanently stuck cell; after
//     DefaultRetireAfterCorrections corrections it is proactively retired
//     with its contents preserved.
//   - an uncorrectable error (>=2 flipped bits, or a torn write's
//     inconsistent code word): never silently returned as garbage. The
//     line is retired into the spare region, its 64B of data are lost and
//     architecturally replaced with zeros (re-encrypted under a freshly
//     bumped minor counter, so counter monotonicity and the
//     shredded-reads-zero invariant both hold), and the workload keeps
//     running with degraded capacity.
//
// Counter blocks get the same protection through the counter cache's
// fetch/writeback backend: a flipped minor counter is corrected before it
// can decrypt with the wrong pad or fake a "shredded" state, and an
// uncorrectable counter line degrades its whole page (the counters are
// untrusted, so every block's pad is) and retires the counter line.
// Counter and spare-region writes are write-verified (read-after-write,
// standard for NVM metadata), so dropped/torn writes never target them —
// see fault.Injector.SetWriteProtect.
//
// When a page loses DefaultRetirePageLines or more lines, the controller
// notifies its FaultSink (the kernel), which retires the whole physical
// page from the allocation pool.
package memctrl

import (
	"fmt"

	"silentshredder/internal/addr"
	"silentshredder/internal/clock"
	"silentshredder/internal/ctr"
	"silentshredder/internal/nvm"
	"silentshredder/internal/obs"
	"silentshredder/internal/wearlevel"
)

// ECC policy knobs.
const (
	// DefaultRetireAfterCorrections is how many ECC corrections a line
	// endures before being proactively retired (contents preserved).
	DefaultRetireAfterCorrections = 4
	// DefaultRetirePageLines is how many retired lines a page tolerates
	// before the FaultSink is asked to retire the whole page.
	DefaultRetirePageLines = 8
)

// FaultSink receives graceful-degradation notifications from the
// controller. The kernel implements it to retire physical pages that have
// lost too many lines.
type FaultSink interface {
	// PageDegraded reports that page p has lost linesLost 64B lines to
	// retirement (or its counter line, in which case linesLost is the
	// whole page).
	PageDegraded(p addr.PageNum, linesLost int)
}

// faultWork is deferred degradation work: handling a lost line requires
// the normal write path (counter bump, encryption, integrity update),
// which cannot run re-entrantly inside the read that discovered the loss.
type faultWork struct {
	line   addr.Phys    // data line to rewrite as zeros (when !isPage)
	page   addr.PageNum // page to degrade wholesale (when isPage)
	isPage bool
}

// eccState is the controller-side ECC/retirement machinery, allocated
// only when Config.ECC is set so the default controller carries no
// overhead and produces byte-identical statistics.
type eccState struct {
	remap       *wearlevel.Remap
	corrections map[addr.Phys]int // per-line ECC corrections since retirement
	lostLines   map[addr.PageNum]int
	pending     []faultWork
	draining    bool

	retireAfter int
	pageLines   int

	// ctrBuf receives ReadCounters' checked device reads, whose bytes
	// only the fault injector looks at.
	ctrBuf [addr.BlockSize]byte
}

func newECCState() *eccState {
	return &eccState{
		remap:       wearlevel.NewRemap(wearlevel.DefaultSpareLines),
		corrections: make(map[addr.Phys]int),
		lostLines:   make(map[addr.PageNum]int),
		retireAfter: DefaultRetireAfterCorrections,
		pageLines:   DefaultRetirePageLines,
	}
}

// ECCEnabled reports whether the SECDED/retirement layer is active.
func (mc *Controller) ECCEnabled() bool { return mc.ecc != nil }

// SetFaultSink installs the receiver of page-degradation notifications
// (typically the kernel). No-op without ECC.
func (mc *Controller) SetFaultSink(s FaultSink) { mc.sink = s }

// mapData resolves a logical block address to the physical line backing
// it (identity without ECC or for healthy lines).
func (mc *Controller) mapData(a addr.Phys) addr.Phys {
	if mc.ecc == nil {
		return a
	}
	return mc.ecc.remap.Resolve(a)
}

// writeData writes a (logical-address) block through the retirement remap.
func (mc *Controller) writeData(a addr.Phys, src []byte) clock.Cycles {
	return mc.dev.WriteBlock(mc.mapData(a), src)
}

// peekData inspects a logical block's stored bytes through the remap.
func (mc *Controller) peekData(a addr.Phys, dst []byte) bool {
	return mc.dev.Peek(mc.mapData(a), dst)
}

// readData reads a (logical-address) data block with ECC. It returns the
// access latency and whether the block's contents were lost to an
// uncorrectable error — in which case buf holds the architectural
// replacement (zeros) and the caller must skip decryption.
func (mc *Controller) readData(a addr.Phys, buf []byte) (clock.Cycles, bool) {
	if mc.ecc == nil {
		return mc.dev.ReadBlock(a, buf), false
	}
	pa := mc.ecc.remap.Resolve(a)
	lat, oc := mc.dev.ReadBlockChecked(pa, buf)
	switch {
	case oc.Torn || oc.BitErrors > 1:
		mc.loseDataLine(a, pa, oc)
		if buf != nil {
			for i := 0; i < addr.BlockSize && i < len(buf); i++ {
				buf[i] = 0
			}
		}
		return lat, true
	case oc.BitErrors == 1:
		// SECDED correction: repair the delivered copy from the stored
		// code word (one extra array read) and count the event.
		mc.eccCorrections.Inc()
		mc.bus.Emit(obs.EvECCCorrect, uint64(a), 0)
		if buf != nil {
			mc.dev.Peek(pa, buf)
		}
		lat += mc.dev.Config().ReadLatency
		mc.ecc.corrections[a]++
		if mc.ecc.corrections[a] >= mc.ecc.retireAfter {
			// Proactive retirement: the line keeps needing correction, so
			// move its (intact) contents to a spare before a second cell
			// fails and the data is lost.
			var keep [addr.BlockSize]byte
			if mc.dev.Peek(pa, keep[:]) {
				mc.retireLine(a, keep[:])
			} else {
				mc.retireLine(a, nil)
			}
		}
	}
	return lat, false
}

// loseDataLine handles an uncorrectable data-line error: typed error into
// the log, line retired, architectural contents replaced with zeros, and
// a deferred re-encrypted zero write back queued so the device, image and
// counters converge.
func (mc *Controller) loseDataLine(a, pa addr.Phys, oc nvm.ReadOutcome) {
	mc.eccUncorrectable.Inc()
	mc.bus.Emit(obs.EvECCUncorrectable, uint64(a), uint64(oc.BitErrors))
	mc.retireLine(a, nil)
	if mc.img.Enabled() {
		var zeros [addr.BlockSize]byte
		mc.img.Write(a, zeros[:])
	}
	mc.ecc.pending = append(mc.ecc.pending, faultWork{line: a})
}

// retireLine redirects logical line a to a fresh spare line, optionally
// seeding the spare with preserved contents. Exhausting the spare region
// is the device's end of life — fail-stop with a descriptive panic.
func (mc *Controller) retireLine(a addr.Phys, contents []byte) {
	spare, err := mc.ecc.remap.Retire(a)
	if err != nil {
		panic(fmt.Sprintf("memctrl: cannot retire line %v: %v", a, err))
	}
	mc.linesRetired.Inc()
	mc.bus.Emit(obs.EvLineRetire, uint64(a), 0)
	delete(mc.ecc.corrections, a)
	if contents != nil {
		mc.dev.WriteBlock(spare, contents)
	}
	if a < wearlevel.SpareBase {
		// Data line: track per-page loss and escalate to the sink.
		p := a.Page()
		mc.ecc.lostLines[p]++
		if mc.sink != nil && mc.ecc.lostLines[p] == mc.ecc.pageLines {
			mc.sink.PageDegraded(p, mc.ecc.lostLines[p])
		}
	}
}

// drainFaultWork performs deferred degradation through the normal write
// path. It runs at the end of top-level controller operations, never
// re-entrantly; new faults discovered while draining are appended and
// handled in the same drain.
func (mc *Controller) drainFaultWork() clock.Cycles {
	if mc.ecc == nil || mc.ecc.draining || len(mc.ecc.pending) == 0 {
		return 0
	}
	mc.ecc.draining = true
	defer func() { mc.ecc.draining = false }()
	var lat clock.Cycles
	for len(mc.ecc.pending) > 0 {
		w := mc.ecc.pending[0]
		mc.ecc.pending = mc.ecc.pending[1:]
		if w.isPage {
			lat += mc.degradePage(w.page)
			continue
		}
		// Rewrite the lost line's architectural zeros through the normal
		// write-back path: minor counter bump, encryption, integrity
		// update, remap to the spare line.
		lat += mc.writeBlockCause(w.line, false)
	}
	return lat
}

// degradePage replaces every block of page p with zeros through the
// normal write path — the graceful response to losing the page's counter
// line (all pads untrusted, so all data is).
func (mc *Controller) degradePage(p addr.PageNum) clock.Cycles {
	if mc.img.Enabled() {
		mc.img.ZeroPage(p)
	}
	var lat clock.Cycles
	for i := 0; i < addr.BlocksPerPage; i++ {
		lat += mc.writeBlockCause(p.BlockAddr(i), true)
	}
	if mc.sink != nil {
		mc.sink.PageDegraded(p, addr.BlocksPerPage)
	}
	return lat
}

// ReadCounters implements the counter cache's fetch backend: an
// ECC-checked, remap-resolved device read of a counter-region line. The
// installed counter value always comes from the (write-verified)
// persistent region, so a single-bit error is corrected by construction —
// the model charges the re-read and counts it. An uncorrectable syndrome
// means the counters cannot be trusted: the counter line is retired
// (preserving the region value on the spare line) and the page queued for
// wholesale degradation.
func (mc *Controller) ReadCounters(ctrA addr.Phys) clock.Cycles {
	if mc.ecc == nil {
		return mc.dev.ReadBlock(ctrA, nil)
	}
	pa := mc.ecc.remap.Resolve(ctrA)
	lat, oc := mc.dev.ReadBlockChecked(pa, mc.ecc.ctrBuf[:])
	switch {
	case oc.Torn || oc.BitErrors > 1:
		mc.eccUncorrectable.Inc()
		mc.bus.Emit(obs.EvECCUncorrectable, uint64(ctrA), uint64(oc.BitErrors))
		p := mc.cc.PageOf(ctrA)
		cb := mc.cc.PersistedValue(p)
		enc := cb.Encode()
		mc.retireLine(ctrA, enc[:])
		mc.ecc.pending = append(mc.ecc.pending, faultWork{page: p, isPage: true})
	case oc.BitErrors == 1:
		mc.eccCorrections.Inc()
		mc.bus.Emit(obs.EvECCCorrect, uint64(ctrA), 0)
		lat += mc.dev.Config().ReadLatency
		mc.ecc.corrections[ctrA]++
		if mc.ecc.corrections[ctrA] >= mc.ecc.retireAfter {
			cb := mc.cc.PersistedValue(mc.cc.PageOf(ctrA))
			enc := cb.Encode()
			mc.retireLine(ctrA, enc[:])
		}
	}
	return lat
}

// WriteCounters implements the counter cache's writeback backend: the
// encoded counter block goes to whatever physical line currently backs
// the counter address.
func (mc *Controller) WriteCounters(ctrA addr.Phys, enc []byte) {
	mc.dev.WriteBlock(mc.ecc.remap.Resolve(ctrA), enc)
}

// recoverBlock decrypts one persisted block's raw cells into its
// architectural contents under the persisted counters (the shared logic
// of post-crash recovery for in-place and remapped lines).
func (mc *Controller) recoverBlock(p addr.PageNum, i int, buf *[addr.BlockSize]byte, cb *ctr.CounterBlock) {
	switch {
	case cb.Minor[i] == ctr.MinorShredded && mc.cfg.Mode == SilentShredder && mc.cfg.Shred == OptionReserveZero:
		*buf = [addr.BlockSize]byte{}
	case cb.Minor[i] == ctr.MinorShredded:
		// Never written back: no valid pad — contents are undefined;
		// model them as the raw cells.
	case mc.cfg.DisableEncryption:
		// Plaintext device: raw cells are the data.
	default:
		mc.engine.Decrypt(buf[:], p, i, cb.Major, cb.Minor[i])
	}
}

// EccCorrections returns single-bit errors corrected by the ECC layer.
func (mc *Controller) EccCorrections() uint64 { return mc.eccCorrections.Value() }

// EccUncorrectable returns uncorrectable ECC errors raised.
func (mc *Controller) EccUncorrectable() uint64 { return mc.eccUncorrectable.Value() }

// LinesRetired returns lines retired into the spare region.
func (mc *Controller) LinesRetired() uint64 { return mc.linesRetired.Value() }
