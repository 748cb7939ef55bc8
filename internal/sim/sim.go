// Package sim composes the full machine: cores, TLBs, the 4-level cache
// hierarchy, the secure NVMM controller, the NVM device, the functional
// memory image, and the kernel. It is the equivalent of the paper's
// gem5 full-system configuration (Table 1).
package sim

import (
	"fmt"

	"silentshredder/internal/apprt"
	"silentshredder/internal/cache"
	"silentshredder/internal/cpu"
	"silentshredder/internal/fault"
	"silentshredder/internal/hier"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/nvm"
	"silentshredder/internal/obs"
	"silentshredder/internal/physmem"
	"silentshredder/internal/span"
	"silentshredder/internal/stats"
	"silentshredder/internal/wearlevel"
)

// Config assembles the per-component configurations.
type Config struct {
	Mode     memctrl.Mode
	ZeroMode kernel.ZeroMode

	Hier    hier.Config
	NVM     nvm.Config
	MemCtrl memctrl.Config

	// MemPages is the size of the kernel's allocatable physical pool.
	MemPages int

	// StoreData enables the functional data path (plaintext image +
	// ciphertext NVM). Timing-only sweeps disable it.
	StoreData bool

	// VerifyPlaintext cross-checks every controller decrypt against the
	// functional image (requires StoreData).
	VerifyPlaintext bool

	// CheckOracle attaches a pure-functional architectural oracle to every
	// runtime and runs machine-wide invariant sweeps every CheckEvery
	// observed operations (see check.go). Implies StoreData.
	CheckOracle bool

	// CheckEvery is the invariant-sweep period in observed runtime
	// operations (0 = DefaultCheckEvery).
	CheckEvery int

	// Faults configures the deterministic fault injector (zero value =
	// perfect device, the byte-identical default). Enabling faults
	// requires StoreData (corruption acts on stored bytes), switches the
	// controller's ECC/retirement layer on, and turns VerifyPlaintext
	// off — a dropped write *legitimately* diverges ciphertext from the
	// architectural image, which is exactly the event ECC exists to
	// handle, not a simulator bug.
	Faults fault.Config

	// Bus, when non-nil, is the observability event bus every component
	// emits into (see internal/obs). The machine does not create one
	// itself: the caller owns its lifetime (and, under the parallel
	// sweep engine, creates one per worker machine). Nil — the default —
	// costs nothing anywhere.
	Bus *obs.Bus

	// Spans, when non-nil, is the latency-provenance recorder every
	// memory operation runs its span through (see internal/span). Like
	// Bus, the caller owns its lifetime — one recorder per worker
	// machine under the parallel sweep engine — and nil costs nothing.
	Spans *span.Recorder

	// EpochEvery, when > 0, samples every registered statistic each
	// EpochEvery machine cycles into a time series (see
	// stats.EpochSampler and Machine.Sampler). 0 disables sampling.
	EpochEvery uint64
}

// Table1Config returns the paper's full Table 1 machine: 8 cores at 2GHz,
// 64KB/512KB/8MB/64MB caches, 2-channel NVM with 75ns/150ns access, and a
// 4MB counter cache.
func Table1Config(mode memctrl.Mode, zm kernel.ZeroMode) Config {
	return Config{
		Mode:      mode,
		ZeroMode:  zm,
		Hier:      hier.Table1Config(8),
		NVM:       nvm.DefaultConfig(),
		MemCtrl:   memctrl.DefaultConfig(mode),
		MemPages:  512 << 10, // 2GB of allocatable pages
		StoreData: true,
	}
}

// ScaledConfig returns a machine with the Table 1 organization but caches
// scaled down by the given factor (1 = full size). Experiments use scaled
// machines so that workloads with simulation-friendly footprints exercise
// the same capacity effects the paper's full-size runs did.
func ScaledConfig(mode memctrl.Mode, zm kernel.ZeroMode, scale int) Config {
	if scale < 1 {
		scale = 1
	}
	cfg := Table1Config(mode, zm)
	div := func(c *cache.Config) {
		c.Size /= scale
		if c.Size < c.Assoc*64 {
			c.Size = c.Assoc * 64
		}
	}
	div(&cfg.Hier.L1)
	div(&cfg.Hier.L2)
	div(&cfg.Hier.L3)
	div(&cfg.Hier.L4)
	cfg.MemCtrl.CounterCache.Size /= scale
	if cfg.MemCtrl.CounterCache.Size < 4096 {
		cfg.MemCtrl.CounterCache.Size = 4096
	}
	return cfg
}

// Validate reports what New would reject in the machine's shape: a core
// count hier.Config.Validate rejects (1 to hier.MaxCores), then the
// first cache — L1 to L4, then the counter cache — whose geometry
// cache.New would reject. A ScaledConfig scale that is not a power of
// two leaves a cache with a fractional or non-power-of-two set count,
// and so does an odd counter-cache size.
func (c Config) Validate() error {
	if err := c.Hier.Validate(); err != nil {
		return err
	}
	for _, cc := range []cache.Config{c.Hier.L1, c.Hier.L2, c.Hier.L3, c.Hier.L4, c.MemCtrl.CounterCache.Tags()} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Machine is a fully wired simulated system.
type Machine struct {
	Cfg    Config
	Cores  []*cpu.Core
	Img    *physmem.Image
	Dev    *nvm.Device
	MC     *memctrl.Controller
	Hier   *hier.Hierarchy
	Kernel *kernel.Kernel
	Source *kernel.LinearSource

	// Injector is the fault injector when Cfg.Faults is enabled, nil
	// otherwise.
	Injector *fault.Injector

	// Bus is the observability event bus (nil when disabled).
	Bus *obs.Bus

	checker *Checker
	sampler *stats.EpochSampler
	spans   *span.Recorder
}

// New builds a machine from cfg.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if cfg.CheckOracle {
		cfg.StoreData = true
		if err := validateCheckConfig(cfg); err != nil {
			return nil, err
		}
	}
	if cfg.Faults.Enabled() {
		// Faults corrupt stored bytes, so the functional data path must
		// exist; ECC must be on to catch them; and the plaintext
		// cross-check must be off (dropped writes legitimately desync
		// ciphertext from the architectural image).
		cfg.StoreData = true
		cfg.MemCtrl.ECC = true
		cfg.VerifyPlaintext = false
	}
	cfg.NVM.StoreData = cfg.StoreData
	cfg.MemCtrl.Mode = cfg.Mode
	cfg.MemCtrl.VerifyPlaintext = cfg.VerifyPlaintext && cfg.StoreData

	img := physmem.New(cfg.StoreData)
	dev := nvm.New(cfg.NVM)
	var inj *fault.Injector
	if cfg.Faults.Enabled() {
		inj = fault.New(cfg.Faults)
		// The controller write-verifies its metadata regions (counters
		// and spare lines): drops and tears are repaired on the spot
		// there, so the injector never surfaces them.
		inj.SetWriteProtect(wearlevel.SpareBase)
		dev.SetInjector(inj)
	}
	mc, err := memctrl.New(cfg.MemCtrl, dev, img)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	h := hier.New(cfg.Hier, mc)
	src := kernel.NewLinearSource(0, cfg.MemPages)
	k, err := kernel.New(cfg.ZeroMode, h, src)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if inj != nil {
		// Pages that lose too many lines are surrendered to the kernel.
		mc.SetFaultSink(k)
	}
	m := &Machine{
		Cfg:      cfg,
		Img:      img,
		Dev:      dev,
		MC:       mc,
		Hier:     h,
		Kernel:   k,
		Source:   src,
		Injector: inj,
	}
	for i := 0; i < cfg.Hier.Cores; i++ {
		m.Cores = append(m.Cores, cpu.New(i))
	}
	if cfg.CheckOracle {
		m.checker = newChecker(m, cfg.CheckEvery)
	}
	if cfg.Bus != nil {
		m.Bus = cfg.Bus
		mc.SetBus(cfg.Bus) // propagates to counter cache and Merkle tree
		dev.SetBus(cfg.Bus)
		h.SetBus(cfg.Bus)
		k.SetBus(cfg.Bus)
		if inj != nil {
			inj.SetBus(cfg.Bus)
		}
	}
	if cfg.Spans != nil {
		m.spans = cfg.Spans
		mc.SetSpans(cfg.Spans) // propagates to the device
	}
	if cfg.EpochEvery > 0 {
		m.sampler = stats.NewEpochSampler(m.Registry(), cfg.EpochEvery)
		m.sampler.TrackHistogram("memctrl_read_latency", mc.ReadLatencyHistogram(), []float64{0.5, 0.99})
	}
	return m, nil
}

// MustNew is New but panics on configuration errors (for tests and
// benchmarks with static configs).
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Runtime creates an application runtime for a fresh process on core i.
func (m *Machine) Runtime(core int) *apprt.Runtime {
	return m.RuntimeFor(core, m.Kernel.NewProcess())
}

// RuntimeFor binds an existing process to core i.
func (m *Machine) RuntimeFor(core int, p *kernel.Process) *apprt.Runtime {
	rt := apprt.New(m.Kernel, core, p, m.Cores[core])
	if m.checker != nil {
		rt.SetChecker(m.checker.forProcess(p))
	}
	if m.spans != nil {
		rt.SetSpans(m.spans)
	}
	if m.Bus != nil || m.sampler != nil || m.spans != nil {
		c := m.Cores[core]
		bus, sampler, spans := m.Bus, m.sampler, m.spans
		tenant := int32(p.PID)
		rt.SetObsHook(func() {
			cyc := uint64(c.Cycles())
			bus.SetNow(core, cyc)
			sampler.Tick(cyc)
			spans.SetNow(core, cyc)
			spans.SetTenant(tenant)
		})
	}
	return rt
}

// SpanRecorder returns the latency-provenance recorder (nil when
// disabled).
func (m *Machine) SpanRecorder() *span.Recorder { return m.spans }

// Sampler returns the epoch time-series sampler (nil when disabled).
func (m *Machine) Sampler() *stats.EpochSampler { return m.sampler }

// ObsFinish finalizes observability state at the end of a run: it takes
// a last epoch sample at the machine's final time so end-of-run totals
// are always represented. Safe to call with observability disabled.
func (m *Machine) ObsFinish() {
	m.sampler.Finish(m.MaxCycles())
}

// TotalInstructions sums retired instructions across cores.
func (m *Machine) TotalInstructions() uint64 {
	var n uint64
	for _, c := range m.Cores {
		n += c.Instructions()
	}
	return n
}

// MaxCycles returns the slowest core's cycle count (the wall-clock of a
// multiprogrammed run).
func (m *Machine) MaxCycles() uint64 {
	var mx uint64
	for _, c := range m.Cores {
		if uint64(c.Cycles()) > mx {
			mx = uint64(c.Cycles())
		}
	}
	return mx
}

// AggregateIPC returns total instructions / max cycles across cores — the
// multiprogrammed IPC metric the paper reports.
func (m *Machine) AggregateIPC() float64 {
	cyc := m.MaxCycles()
	if cyc == 0 {
		return 0
	}
	return float64(m.TotalInstructions()) / float64(cyc)
}

// Crash models sudden power loss and reboot: all caches lose their
// contents (dirty data included), the counter cache applies its battery
// semantics, and the architectural memory image is rebuilt from what the
// non-volatile device actually holds. After Crash, reads see exactly what
// survived — the experiment behind the paper's §2.3 persistence argument.
func (m *Machine) Crash() {
	m.Hier.Crash()
	m.MC.Crash()
	m.MC.RecoverImage()
	m.Kernel.RecoverJournal()
}

// Snapshot captures every component's statistics as plain values that are
// safe to send across goroutine boundaries (see stats.Snapshot). The
// parallel sweep harness uses this: the Machine stays confined to its
// worker goroutine and only the snapshot travels.
func (m *Machine) Snapshot() stats.Snapshot { return m.Registry().Snapshot() }

// Registry collects every component's statistics.
func (m *Machine) Registry() *stats.Registry {
	r := &stats.Registry{}
	for i, c := range m.Cores {
		r.Register(c.StatsSet(fmt.Sprintf("core%d", i)))
	}
	r.Register(m.Hier.StatsSet())
	r.Register(m.MC.StatsSet())
	r.Register(m.MC.CounterCache().StatsSet())
	if m.MC.IntegrityEnabled() {
		r.Register(m.MC.IntegrityEngine().StatsSet())
	}
	r.Register(m.Dev.StatsSet("nvm"))
	r.Register(m.Kernel.StatsSet())
	if m.Injector != nil {
		r.Register(m.Injector.StatsSet("faults"))
	}
	for i := 0; i < m.Cfg.Hier.Cores; i++ {
		r.Register(m.Kernel.TLB(i).StatsSet(fmt.Sprintf("tlb%d", i)))
	}
	return r
}
