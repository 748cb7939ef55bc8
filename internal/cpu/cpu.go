// Package cpu models the timing of the simulated cores.
//
// Each core is an in-order timing model: non-memory instructions retire at
// one per cycle, loads stall the core for their full memory latency, and
// stores retire into a write buffer without stalling (their cost surfaces
// later as cache/NVM occupancy). The paper's IPC results are first-order
// consequences of how many loads miss to NVM and how fast those misses
// complete, which this model captures.
package cpu

import (
	"silentshredder/internal/clock"
	"silentshredder/internal/stats"
)

// Core is one simulated core's timing state.
type Core struct {
	ID int

	cycles       clock.Cycles
	instructions uint64

	loadStalls  stats.Mean // per-load stall cycles
	storeIssued stats.Counter
	memReads    stats.Counter
}

// New creates core id.
func New(id int) *Core { return &Core{ID: id} }

// Compute retires n non-memory instructions (1 cycle each).
func (c *Core) Compute(n uint64) {
	c.instructions += n
	c.cycles += clock.Cycles(n)
}

// Load retires a load instruction that stalled for lat cycles (the full
// translation + cache/memory access latency).
func (c *Core) Load(lat clock.Cycles) {
	c.instructions++
	c.cycles += 1 + lat
	c.loadStalls.Observe(float64(lat))
	c.memReads.Inc()
}

// Store retires a store instruction. occupancy is the core-visible cost
// (e.g. an L1 write hit or a non-temporal store's bus slot); the rest of
// the store's latency is hidden by the write buffer.
func (c *Core) Store(occupancy clock.Cycles) {
	c.instructions++
	c.cycles += 1 + occupancy
	c.storeIssued.Inc()
}

// Stall charges cycles with no instruction retired (page-fault handling,
// shred-command acknowledgement, TLB walks charged separately, ...).
func (c *Core) Stall(lat clock.Cycles) { c.cycles += lat }

// Cycles returns the core's elapsed cycles.
func (c *Core) Cycles() clock.Cycles { return c.cycles }

// Instructions returns retired instructions.
func (c *Core) Instructions() uint64 { return c.instructions }

// IPC returns instructions per cycle.
func (c *Core) IPC() float64 {
	if c.cycles == 0 {
		return 0
	}
	return float64(c.instructions) / float64(c.cycles)
}

// MeanLoadStall returns the mean per-load stall in cycles.
func (c *Core) MeanLoadStall() float64 { return c.loadStalls.Mean() }

// Loads returns the number of load instructions retired.
func (c *Core) Loads() uint64 { return c.memReads.Value() }

// Reset clears the core's timing state (used between measurement phases).
func (c *Core) Reset() {
	c.cycles = 0
	c.instructions = 0
	c.loadStalls.Reset()
	c.storeIssued.Reset()
	c.memReads.Reset()
}

// StatsSet exposes core statistics under the given name.
func (c *Core) StatsSet(name string) *stats.Set {
	s := stats.NewSet(name)
	s.RegisterFunc("cycles", func() float64 { return float64(c.cycles) })
	s.RegisterFunc("instructions", func() float64 { return float64(c.instructions) })
	s.RegisterFunc("ipc", c.IPC)
	s.RegisterMean("mean_load_stall", &c.loadStalls)
	return s
}
