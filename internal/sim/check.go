package sim

// Oracle cross-checking and machine-wide invariant sweeps (the repo's
// differential safety net).
//
// When Config.CheckOracle is set, every Runtime the machine hands out is
// instrumented with a per-process architectural oracle (internal/oracle):
// each load's returned bytes are validated against the pure-functional
// contract, and every CheckEvery observed operations a machine-wide
// invariant sweep runs:
//
//   - hier.CheckAll: inclusion, L1/L2 pairing, directory coverage,
//     single-writer, directory structural rules — over every resident
//     block;
//   - countercache.CheckCoherence: tag/content pairing and clean-line
//     agreement between the cached and NVM-resident counter values;
//   - counter monotonicity: a page's major counter never decreases, and
//     while the major is unchanged its minor counters never decrease
//     (shreds strictly increase the major; write backs only bump minors);
//   - the reserved-zero rule: a block whose minor counter is the reserved
//     shredded value must read architecturally as zeros unless a cache
//     still holds a newer (not yet written back) copy;
//   - zero-page purity: the shared CoW zero page reads as zeros (a store
//     leaking through a read-only zero-page mapping is a kernel bug);
//   - Merkle consistency: every current counter block hashes to the
//     integrity root (when the tree is enabled; statistics-neutral);
//   - oracle/image agreement: every page the oracle models matches the
//     machine's architectural memory through the process's page table.
//
// A violation panics with a descriptive message: check mode exists to
// fail loudly in tests, fuzzing and -check command runs.

import (
	"fmt"
	"sort"

	"silentshredder/internal/addr"
	"silentshredder/internal/apprt"
	"silentshredder/internal/ctr"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/oracle"
)

// DefaultCheckEvery is the invariant-sweep period (in observed runtime
// operations) when Config.CheckEvery is zero.
const DefaultCheckEvery = 4096

// validateCheckConfig rejects configurations whose architectural contract
// the oracle cannot express.
func validateCheckConfig(cfg Config) error {
	if cfg.Faults.Enabled() {
		return fmt.Errorf("sim: CheckOracle is incompatible with fault injection (lost lines legitimately diverge from the architectural oracle; use the crash/recovery harness instead)")
	}
	if cfg.ZeroMode == kernel.ZeroNone {
		return fmt.Errorf("sim: CheckOracle requires a shredding kernel (ZeroNone deliberately leaks reused pages)")
	}
	if cfg.Mode == memctrl.SilentShredder && cfg.MemCtrl.Shred != memctrl.OptionReserveZero {
		return fmt.Errorf("sim: CheckOracle requires the reserve-zero shred encoding (option %v leaves shredded pages reading as scrambled bits)", cfg.MemCtrl.Shred)
	}
	return nil
}

// Checker is the machine-wide cross-check state: one oracle per process,
// the previous sweep's counter snapshot for monotonicity, and counters
// for reporting.
type Checker struct {
	m     *Machine
	every uint64

	oracles map[int]*procOracle
	prevCtr map[addr.PageNum]ctr.CounterBlock

	ops    uint64
	sweeps uint64
}

func newChecker(m *Machine, every int) *Checker {
	if every <= 0 {
		every = DefaultCheckEvery
	}
	return &Checker{
		m:       m,
		every:   uint64(every),
		oracles: make(map[int]*procOracle),
		prevCtr: make(map[addr.PageNum]ctr.CounterBlock),
	}
}

// procOracle binds one process's oracle to the machine checker; it is the
// apprt.Checker installed on that process's runtimes.
type procOracle struct {
	c    *Checker
	proc *kernel.Process
	o    *oracle.Oracle
}

// forProcess returns (creating on first use) the process's oracle binding.
func (c *Checker) forProcess(p *kernel.Process) *procOracle {
	if po, ok := c.oracles[p.PID]; ok {
		return po
	}
	po := &procOracle{c: c, proc: p, o: oracle.New()}
	c.oracles[p.PID] = po
	return po
}

// Oracle returns the reference model for the given PID (nil if that
// process never ran under this checker). Tests use it to inject
// out-of-band architectural events (e.g. a shred issued at the controller
// without any runtime operation).
func (c *Checker) Oracle(pid int) *oracle.Oracle {
	if po, ok := c.oracles[pid]; ok {
		return po.o
	}
	return nil
}

// LoadsChecked returns loads validated against the oracle.
func (c *Checker) LoadsChecked() uint64 {
	var n uint64
	for _, po := range c.oracles {
		n += po.o.LoadsChecked()
	}
	return n
}

// Report summarizes the checking activity (for -check command output).
func (c *Checker) Report() string {
	var pages int
	for _, po := range c.oracles {
		pages += po.o.Pages()
	}
	return fmt.Sprintf("oracle check: %d ops observed, %d loads verified, %d invariant sweeps, %d pages modeled across %d processes — no violations",
		c.ops, c.LoadsChecked(), c.sweeps, pages, len(c.oracles))
}

func (c *Checker) tick() {
	c.ops++
	if c.ops%c.every == 0 {
		if err := c.m.RunInvariantSweep(); err != nil {
			panic(fmt.Sprintf("sim: invariant sweep failed after %d ops: %v", c.ops, err))
		}
	}
}

// Observe implements apprt.Checker. The runtime emits an operation
// *before* executing it against the machine, so the sweep must run first
// — at that instant neither the oracle nor the machine has applied the
// op and the two agree. Only then does the oracle apply it.
func (po *procOracle) Observe(op apprt.TraceOp) {
	po.c.tick()
	po.o.Observe(op)
}

// ObserveStoreBytes implements apprt.Checker. Unlike Observe it is called
// *after* the machine wrote the chunk, so the oracle applies the store
// first and the sweep runs at the post-op point.
func (po *procOracle) ObserveStoreBytes(va addr.Virt, data []byte) {
	po.o.ObserveStoreBytes(va, data)
	po.c.tick()
}

// CheckLoad implements apprt.Checker.
func (po *procOracle) CheckLoad(va addr.Virt, got []byte) {
	if err := po.o.CheckLoad(va, got); err != nil {
		panic(fmt.Sprintf("sim: architectural contract violated (pid %d): %v", po.proc.PID, err))
	}
}

// Checker returns the machine's cross-check state, or nil when
// Config.CheckOracle is off.
func (m *Machine) Checker() *Checker { return m.checker }

// CheckReport returns the checker's summary, or "" when checking is off.
func (m *Machine) CheckReport() string {
	if m.checker == nil {
		return ""
	}
	return m.checker.Report()
}

// RunInvariantSweep validates the machine-wide invariants listed in this
// file's package comment, returning the first violation. It is safe to
// call on any machine (checking enabled or not); the oracle/image and
// counter-monotonicity passes additionally run when a checker is
// attached. The sweep never mutates machine state or statistics.
func (m *Machine) RunInvariantSweep() error {
	if err := m.Hier.CheckAll(); err != nil {
		return err
	}
	if err := m.MC.CounterCache().CheckCoherence(); err != nil {
		return err
	}
	if err := m.MC.Device().CheckBankInvariants(); err != nil {
		return err
	}
	if err := m.MC.CheckIntegrity(); err != nil {
		return err
	}
	if err := m.checkShreddedReadsZero(); err != nil {
		return err
	}
	if err := m.checkZeroPagePurity(); err != nil {
		return err
	}
	if m.checker != nil {
		if err := m.checker.checkCounterMonotonicity(); err != nil {
			return err
		}
		if err := m.checker.checkOracleImageAgreement(); err != nil {
			return err
		}
		m.checker.sweeps++
	}
	return nil
}

// checkShreddedReadsZero enforces the reserved-encoding rule: a data
// block whose minor counter is the reserved shredded value has no valid
// ciphertext, so its architectural contents must be zeros — unless the
// hierarchy still holds the block (a store's new data lives in a cache
// until the write back bumps the counter). This is §4.2's "shredded lines
// read as zero-filled blocks", machine-checked.
func (m *Machine) checkShreddedReadsZero() error {
	if !m.Img.Enabled() {
		return nil
	}
	var err error
	m.MC.CounterCache().ForEachCurrent(func(p addr.PageNum, cb ctr.CounterBlock) {
		if err != nil {
			return
		}
		for i := 0; i < addr.BlocksPerPage; i++ {
			if cb.Minor[i] != ctr.MinorShredded {
				continue
			}
			a := p.BlockAddr(i)
			blk := m.Img.ReadBlock(a)
			if blk == ([addr.BlockSize]byte{}) {
				continue
			}
			if m.Hier.ResidentAny(a) {
				continue // newer data still cached; counter bumps on write back
			}
			err = fmt.Errorf("sim: block %v has the reserved shredded counter but non-zero architectural contents %x (not cache-resident)", a, blk[:8])
		}
	})
	return err
}

// checkZeroPagePurity verifies the shared CoW zero page still reads as
// zeros. The kernel maps it read-only into every process that reads an
// untouched page; any non-zero byte means a write leaked through a
// read-only mapping (e.g. the OOM fallback path) and is now visible to
// every process in the system.
func (m *Machine) checkZeroPagePurity() error {
	if !m.Img.Enabled() {
		return nil
	}
	zp := m.Kernel.ZeroPPN()
	var page [addr.PageSize]byte
	m.Img.Read(zp.Addr(), page[:])
	for i, b := range page {
		if b != 0 {
			return fmt.Errorf("sim: shared zero page %v corrupted at offset %d (byte %#02x)", zp, i, b)
		}
	}
	return nil
}

// checkCounterMonotonicity compares every page's current counter block
// against the previous sweep's snapshot: the major counter never
// decreases, and while the major is unchanged no minor counter decreases.
// (A shred strictly increases the major; write backs only bump minors; a
// rollback on either is exactly the replay attack the integrity tree
// exists to catch, so the simulator must never produce one itself.)
func (c *Checker) checkCounterMonotonicity() error {
	var err error
	cc := c.m.MC.CounterCache()
	next := make(map[addr.PageNum]ctr.CounterBlock, len(c.prevCtr))
	cc.ForEachCurrent(func(p addr.PageNum, cb ctr.CounterBlock) {
		next[p] = cb
		if err != nil {
			return
		}
		prev, ok := c.prevCtr[p]
		if !ok {
			return
		}
		if cb.Major < prev.Major {
			err = fmt.Errorf("sim: page %v major counter rolled back %d -> %d", p, prev.Major, cb.Major)
			return
		}
		if cb.Major == prev.Major {
			for i := 0; i < addr.BlocksPerPage; i++ {
				if cb.Minor[i] < prev.Minor[i] {
					err = fmt.Errorf("sim: page %v block %d minor counter rolled back %d -> %d under major %d",
						p, i, prev.Minor[i], cb.Minor[i], cb.Major)
					return
				}
			}
		}
	})
	c.prevCtr = next
	return err
}

// checkOracleImageAgreement walks every page each process's oracle
// models and compares it, through the process's page table, against the
// machine's architectural memory image. Unmapped and zero-page-mapped
// pages must read as zeros in the model too.
func (c *Checker) checkOracleImageAgreement() error {
	img := c.m.Img
	if !img.Enabled() {
		return nil
	}
	pids := make([]int, 0, len(c.oracles))
	for pid := range c.oracles {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		po := c.oracles[pid]
		var vpns []addr.VPageNum
		po.o.ForEachPage(func(vpn addr.VPageNum, _ *[addr.PageSize]byte) {
			vpns = append(vpns, vpn)
		})
		sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
		for _, vpn := range vpns {
			pte, mapped := po.proc.AS.Lookup(vpn)
			if mapped && !pte.ZeroPage {
				var page [addr.PageSize]byte
				img.Read(pte.PPN.Addr(), page[:])
				if err := po.o.CheckPage(vpn, &page); err != nil {
					return fmt.Errorf("sim: pid %d: %w", pid, err)
				}
			} else if err := po.o.CheckPage(vpn, nil); err != nil {
				// Unmapped (or zero-page-mapped) memory reads as zeros.
				return fmt.Errorf("sim: pid %d (unmapped): %w", pid, err)
			}
		}
	}
	return nil
}
