// Banked device model: independently-lockable banks, each with its own
// bounded write queue, drain scheduler and busy-until timestamp.
//
// The legacy bank model (Config.Banks/BankPenalty/BankWindow) is a
// passive penalty heuristic: a bank "recently touched" charges a flat
// extra latency. It cannot express the three effects NVM controller
// studies actually measure:
//
//   - intra-bank serialization: back-to-back requests to one bank queue
//     up behind its row-cycle time, while requests to *different* banks
//     overlap freely (inter-bank parallelism);
//   - write buffering: slow writes are posted into a per-bank bounded
//     queue and drained when the bank is idle, so a burst of writes only
//     stalls the issuing side once the queue fills (and then drains in
//     batches, amortizing the bus turnaround);
//   - read-around-write: a read arriving at a bank with queued writes
//     bypasses them (reads are latency-critical; writes are not), even
//     pausing a write mid-programming — PCM write pausing/cancellation
//     (Qureshi et al., HPCA 2010). The read stalls only behind earlier
//     reads; bypassed writes re-serialize after it.
//
// Enabling the model (Config.BankQueueDepth > 0) replaces the heuristic.
// Time is the device's logical arrival clock: every access advances it
// by DefaultBankArrival cycles (a stand-in for the modeled access rate,
// like BankWindow was), and all bank state (busy-until timestamps, queue
// completion times) lives on that clock. The model is fully
// deterministic: timing depends only on the access sequence.
//
// Every bank carries its own mutex, and banks share no mutable state, so
// requests to different banks can be serviced by different goroutines
// without contending. The memory controller drives the device from one
// goroutine and takes each lock uncontended; the bank-storm race test
// (TestBankSchedStorm) hammers the banks from many goroutines at once.
package nvm

import (
	"fmt"
	"sync"

	"silentshredder/internal/clock"
	"silentshredder/internal/stats"
)

// Default banked-model parameters (used when the enabling knob
// BankQueueDepth is set but a tuning knob is zero).
const (
	// DefaultBankDrainBatch is how many queued writes a full bank drains
	// back-to-back before accepting the stalled one.
	DefaultBankDrainBatch = 4
	// DefaultBankArrival is the logical inter-arrival time between
	// device requests, in cycles.
	DefaultBankArrival = clock.Cycles(16)
)

// bank is one independently-lockable NVM bank: its busy-until timestamp
// and its bounded queue of posted writes (each entry is the device-time
// the write's cell programming completes, ascending).
type bank struct {
	mu        sync.Mutex
	busyUntil uint64
	q         []uint64
}

// bankOutcome reports what one scheduled access experienced, so the
// (single-goroutine) caller can fold it into the device statistics in a
// deterministic order — the scheduler itself never touches counters.
type bankOutcome struct {
	Extra      clock.Cycles // stall added to the base access latency
	Conflict   bool         // bank was busy at arrival
	ReadAround bool         // read bypassed a non-empty write queue
	DrainStall bool         // write found the queue full and waited for a drain batch
	Drained    int          // queued writes retired by this access's drain pass
	Occupancy  int          // queue occupancy after the access (writes only)
}

// bankSched is the banked drain scheduler shared by a device's channels.
type bankSched struct {
	banks      []bank
	depth      int
	drainBatch int
	readLat    uint64
	writeLat   uint64
}

func newBankSched(nbanks int, cfg Config) *bankSched {
	drain := cfg.BankDrainBatch
	if drain <= 0 {
		drain = DefaultBankDrainBatch
	}
	return &bankSched{
		banks:      make([]bank, nbanks),
		depth:      cfg.BankQueueDepth,
		drainBatch: drain,
		readLat:    uint64(cfg.ReadLatency),
		writeLat:   uint64(cfg.WriteLatency),
	}
}

// drainLocked retires queued writes whose programming completed by
// device-time t. Caller holds b.mu.
func (s *bankSched) drainLocked(b *bank, t uint64) int {
	n := 0
	for n < len(b.q) && b.q[n] <= t {
		n++
	}
	if n > 0 {
		b.q = b.q[:copy(b.q, b.q[n:])]
	}
	return n
}

// read schedules a read arriving at bank bi at device-time t.
//
// Reads are latency-critical: they bypass queued writes — pausing even
// one mid-programming (write pausing) — and stall only behind earlier
// reads (busyUntil). The bypassed writes are pushed back behind the
// read: their completion times are rebuilt as a back-to-back chain after
// it.
func (s *bankSched) read(bi int, t uint64) bankOutcome {
	b := &s.banks[bi]
	b.mu.Lock()
	defer b.mu.Unlock()
	var oc bankOutcome
	oc.Drained = s.drainLocked(b, t)
	start := t
	if b.busyUntil > start {
		start = b.busyUntil
		oc.Conflict = true
	}
	oc.Extra = clock.Cycles(start - t)
	b.busyUntil = start + s.readLat
	if len(b.q) > 0 {
		oc.ReadAround = true
		// The read preempted the queue: queued writes now serialize
		// after it.
		prev := b.busyUntil
		for i := range b.q {
			prev += s.writeLat
			b.q[i] = prev
		}
	}
	oc.Occupancy = len(b.q)
	return oc
}

// write schedules a posted write arriving at bank bi at device-time t.
// The write occupies a queue slot until its cells finish programming; a
// full queue stalls the issuing side until a batch of queued writes has
// drained (write-drain batching).
func (s *bankSched) write(bi int, t uint64) bankOutcome {
	b := &s.banks[bi]
	b.mu.Lock()
	defer b.mu.Unlock()
	var oc bankOutcome
	oc.Drained = s.drainLocked(b, t)
	if len(b.q) >= s.depth {
		// Bounded queue is full: wait for a drain batch to retire.
		k := s.drainBatch
		if k > len(b.q) {
			k = len(b.q)
		}
		wait := b.q[k-1]
		oc.DrainStall = true
		oc.Extra = clock.Cycles(wait - t)
		t = wait
		oc.Drained += s.drainLocked(b, t)
	}
	start := t
	if b.busyUntil > start {
		start = b.busyUntil
		oc.Conflict = true
	}
	if n := len(b.q); n > 0 && b.q[n-1] > start {
		// Writes service in order behind the queue's tail.
		start = b.q[n-1]
	}
	b.q = append(b.q, start+s.writeLat)
	oc.Occupancy = len(b.q)
	return oc
}

// quiesce drains every bank's queue and clears its busy state, returning
// the number of writes retired. It models an idle period long enough for
// all posted writes to program — end-of-run/flush semantics.
func (s *bankSched) quiesce() int {
	n := 0
	for i := range s.banks {
		b := &s.banks[i]
		b.mu.Lock()
		n += len(b.q)
		b.q = b.q[:0]
		b.busyUntil = 0
		b.mu.Unlock()
	}
	return n
}

// check validates the per-bank invariants: occupancy never exceeds the
// bounded depth and completion times are strictly ordered.
func (s *bankSched) check() error {
	for i := range s.banks {
		b := &s.banks[i]
		b.mu.Lock()
		n := len(b.q)
		bad := n > s.depth
		for j := 1; !bad && j < n; j++ {
			bad = b.q[j] < b.q[j-1]
		}
		b.mu.Unlock()
		if bad {
			return fmt.Errorf("nvm: bank %d queue invariant violated (occupancy %d, depth %d)", i, n, s.depth)
		}
	}
	return nil
}

// reset clears all bank state (queues and busy-until timestamps) without
// recreating the banks. Device.ResetStats, which the controller's
// ResetStats calls, uses it so warmup-phase queue occupancy cannot charge
// the measured phase — the same contract as the controller's modeled
// write queue.
func (s *bankSched) reset() {
	for i := range s.banks {
		b := &s.banks[i]
		b.mu.Lock()
		b.q = b.q[:0]
		b.busyUntil = 0
		b.mu.Unlock()
	}
}

// Quiesce drains every bank's posted-write queue (an idle period long
// enough for all programming to complete). Returns writes retired. A
// no-op (0) on the legacy model.
func (d *Device) Quiesce() int {
	if d.sched == nil {
		return 0
	}
	n := d.sched.quiesce()
	d.wqDrained.Add(uint64(n))
	return n
}

// CheckBankInvariants validates the banked scheduler's structural
// invariants: every bank's queue occupancy is within the bounded depth
// and its completion chain is ordered. Nil on the legacy model. The
// machine-wide invariant sweep calls this.
func (d *Device) CheckBankInvariants() error {
	if d.sched == nil {
		return nil
	}
	return d.sched.check()
}

// DrainStalls returns writes that stalled on a full per-bank queue.
func (d *Device) DrainStalls() uint64 { return d.wqDrainStalls.Value() }

// ReadAroundWrites returns reads that bypassed a non-empty write queue.
func (d *Device) ReadAroundWrites() uint64 { return d.readArounds.Value() }

// WQOccupancyHistogram exposes the posted-write queue occupancy
// distribution (samples taken after every banked-model access).
func (d *Device) WQOccupancyHistogram() *stats.Histogram { return &d.wqOccupancy }
