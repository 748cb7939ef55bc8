package nvm

import (
	"math/rand"
	"sync"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/clock"
)

// bankedConfig returns a small banked-model device config: 1 channel so
// bank mapping is straightforward, tiny latencies so expected timings are
// easy to compute by hand.
func bankedConfig(banks, depth int) Config {
	return Config{
		ReadLatency:    10,
		WriteLatency:   20,
		Channels:       1,
		Banks:          banks,
		BankQueueDepth: depth,
	}
}

// newBankedDevice builds a device from bankedConfig whose arrival clock
// advances one cycle per access.
func newBankedDevice(cfg Config) *Device {
	d := New(cfg)
	d.arrival = 1
	return d
}

func TestBankSchedReadConflict(t *testing.T) {
	s := newBankSched(1, bankedConfig(1, 4))
	// First read at t=0: bank idle, no stall.
	oc := s.read(0, 0)
	if oc.Extra != 0 || oc.Conflict {
		t.Fatalf("first read: extra=%d conflict=%v, want 0/false", oc.Extra, oc.Conflict)
	}
	// Second read at t=3: bank busy until 10, so it stalls 7.
	oc = s.read(0, 3)
	if oc.Extra != 7 || !oc.Conflict {
		t.Fatalf("second read: extra=%d conflict=%v, want 7/true", oc.Extra, oc.Conflict)
	}
	// Third read after the bank went idle: no stall again.
	oc = s.read(0, 100)
	if oc.Extra != 0 || oc.Conflict {
		t.Fatalf("idle read: extra=%d conflict=%v, want 0/false", oc.Extra, oc.Conflict)
	}
}

func TestBankSchedWriteQueueBound(t *testing.T) {
	const depth = 4
	s := newBankSched(1, bankedConfig(1, depth))
	// Posted writes at t=0 fill the queue without stalling the issuer.
	for i := 0; i < depth; i++ {
		oc := s.write(0, 0)
		if oc.DrainStall {
			t.Fatalf("write %d stalled with queue below depth", i)
		}
		if oc.Occupancy != i+1 {
			t.Fatalf("write %d: occupancy=%d, want %d", i, oc.Occupancy, i+1)
		}
	}
	// The queue is full: the next write waits for a drain batch. With
	// DefaultBankDrainBatch=4 >= occupancy, it waits for all 4 queued
	// writes (completion chain 20,40,60,80), i.e. until t=80.
	oc := s.write(0, 0)
	if !oc.DrainStall {
		t.Fatal("write into a full queue did not drain-stall")
	}
	if oc.Extra != 80 {
		t.Fatalf("drain stall waited %d cycles, want 80", oc.Extra)
	}
	if oc.Drained != depth {
		t.Fatalf("drain retired %d writes, want %d", oc.Drained, depth)
	}
	if oc.Occupancy != 1 {
		t.Fatalf("occupancy after stall-drain = %d, want 1", oc.Occupancy)
	}
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
}

func TestBankSchedDrainBatch(t *testing.T) {
	cfg := bankedConfig(1, 8)
	cfg.BankDrainBatch = 2
	s := newBankSched(1, cfg)
	for i := 0; i < 8; i++ {
		s.write(0, 0)
	}
	// Full queue, batch 2: wait for the 2nd queued completion (t=40),
	// not the whole queue.
	oc := s.write(0, 0)
	if !oc.DrainStall || oc.Extra != 40 {
		t.Fatalf("batched drain: stall=%v extra=%d, want true/40", oc.DrainStall, oc.Extra)
	}
	if oc.Drained != 2 {
		t.Fatalf("batched drain retired %d, want 2", oc.Drained)
	}
}

func TestBankSchedReadAroundWrite(t *testing.T) {
	s := newBankSched(1, bankedConfig(1, 4))
	// Two posted writes: in service until 20, queued tail completes at 40.
	s.write(0, 0)
	s.write(0, 0)
	// A read at t=5 pauses the in-flight write and bypasses the queued
	// one (write pausing: posted writes never block a read): no stall,
	// and both writes re-serialize behind the read.
	oc := s.read(0, 5)
	if !oc.ReadAround {
		t.Fatal("read did not bypass the queued writes")
	}
	if oc.Extra != 0 || oc.Conflict {
		t.Fatalf("read-around: extra=%d conflict=%v, want 0/false (writes must not stall reads)", oc.Extra, oc.Conflict)
	}
	// Queue rebuilt after the read: read finishes at 15, writes chain to
	// 35 and 55.
	b := &s.banks[0]
	if len(b.q) != 2 || b.q[0] != 35 || b.q[1] != 55 {
		t.Fatalf("rebuilt queue = %v, want [35 55]", b.q)
	}
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
}

func TestBankSchedQuiesceAndReset(t *testing.T) {
	s := newBankSched(4, bankedConfig(4, 4))
	for b := 0; b < 4; b++ {
		for i := 0; i < 3; i++ {
			s.write(b, 0)
		}
	}
	if n := s.quiesce(); n != 12 {
		t.Fatalf("quiesce retired %d writes, want 12", n)
	}
	for b := 0; b < 4; b++ {
		if occ := len(s.banks[b].q); occ != 0 {
			t.Fatalf("bank %d occupancy %d after quiesce, want 0", b, occ)
		}
	}
	// reset likewise clears queues and busy state.
	s.write(0, 0)
	s.reset()
	if occ := len(s.banks[0].q); occ != 0 {
		t.Fatalf("occupancy %d after reset, want 0", occ)
	}
	if s.banks[0].busyUntil != 0 {
		t.Fatalf("busyUntil %d after reset, want 0", s.banks[0].busyUntil)
	}
}

// TestBankedDeviceLifecycle exercises the Device-level wiring: stats
// accumulate under traffic, ResetStats clears both the counters and the
// scheduler state (the controller's ResetStats contract), and the legacy
// model reports inert values.
func TestBankedDeviceLifecycle(t *testing.T) {
	cfg := bankedConfig(1, 2)
	cfg.StoreData = true
	d := newBankedDevice(cfg)
	if d.sched == nil {
		t.Fatal("no banked scheduler with BankQueueDepth set")
	}
	buf := make([]byte, addr.BlockSize)
	// Everything lands on bank 0: writes fill the depth-2 queue and
	// stall; interleaved reads bypass it.
	for i := 0; i < 16; i++ {
		d.WriteBlock(addr.Phys(0), buf)
	}
	d.ReadBlock(addr.Phys(0), buf)
	if d.wqEnqueued.Value() != 16 {
		t.Fatalf("wq_enqueued = %d, want 16", d.wqEnqueued.Value())
	}
	if d.DrainStalls() == 0 {
		t.Error("no drain stalls after overfilling a depth-2 queue")
	}
	if d.ReadAroundWrites() == 0 {
		t.Error("read of a queue-backed bank did not count a read-around")
	}
	if d.WQOccupancyHistogram().Count() != 17 {
		t.Fatalf("occupancy samples = %d, want 17", d.WQOccupancyHistogram().Count())
	}
	if err := d.CheckBankInvariants(); err != nil {
		t.Fatal(err)
	}
	if occ := len(d.sched.banks[0].q); occ == 0 {
		t.Error("bank 0 queue empty right after a write burst")
	}

	d.ResetStats()
	if d.wqEnqueued.Value() != 0 || d.DrainStalls() != 0 || d.ReadAroundWrites() != 0 {
		t.Error("banked counters survived ResetStats")
	}
	if d.WQOccupancyHistogram().Count() != 0 {
		t.Error("occupancy histogram survived ResetStats")
	}
	if occ := len(d.sched.banks[0].q); occ != 0 {
		t.Errorf("bank 0 occupancy %d after ResetStats, want 0 (queues must clear like mc.writeQueue)", occ)
	}
	if d.now != 0 {
		t.Errorf("device arrival clock %d after ResetStats, want 0", d.now)
	}

	// Legacy model: the banked accessors are inert.
	ld := New(DefaultConfig())
	if ld.sched != nil || ld.Quiesce() != 0 || ld.CheckBankInvariants() != nil {
		t.Error("legacy-model device reports banked state")
	}
}

// TestBankedDeterminism pins the model's determinism: two devices fed the
// same access sequence produce identical timing and stats, regardless of
// host scheduling.
func TestBankedDeterminism(t *testing.T) {
	run := func() (lats []clock.Cycles, stalls, arounds uint64) {
		d := newBankedDevice(bankedConfig(4, 4))
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 2000; i++ {
			a := addr.Phys(rng.Intn(64) * addr.BlockSize)
			if rng.Intn(3) == 0 {
				lats = append(lats, d.ReadBlock(a, nil))
			} else {
				lats = append(lats, d.WriteBlock(a, nil))
			}
		}
		return lats, d.DrainStalls(), d.ReadAroundWrites()
	}
	l1, s1, a1 := run()
	l2, s2, a2 := run()
	if s1 != s2 || a1 != a2 {
		t.Fatalf("stats diverged: stalls %d/%d arounds %d/%d", s1, s2, a1, a2)
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("latency %d diverged: %d vs %d", i, l1[i], l2[i])
		}
	}
	if s1 == 0 && a1 == 0 {
		t.Fatal("sequence produced no contention; determinism check is vacuous")
	}
}

// TestBankSchedStorm hammers the scheduler from many goroutines — half
// the ops concentrated on bank 0, the rest sprayed across all banks, with
// concurrent occupancy probes, invariant checks and quiesces mixed in.
// Banks are independently lockable, so this must be race-clean (the
// `make race` bank-storm gate) and every invariant must hold throughout
// and after a final quiesce.
func TestBankSchedStorm(t *testing.T) {
	const (
		banks      = 8
		goroutines = 16
		opsPerG    = 2000
	)
	s := newBankSched(banks, bankedConfig(banks, 4))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < opsPerG; i++ {
				b := 0 // hammer one bank…
				if i%2 == 1 {
					b = rng.Intn(banks) // …and spray the rest
				}
				tm := uint64(rng.Intn(1000))
				switch rng.Intn(8) {
				case 0:
					s.read(b, tm)
				case 1, 2, 3:
					s.write(b, tm)
				case 4, 5:
					// check bounds every queue's occupancy by the depth.
					if err := s.check(); err != nil {
						panic(err)
					}
				case 6:
					s.quiesce()
				default:
					s.read(b, tm)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
	// Drains to zero at quiesce: the invariant-sweep contract.
	s.quiesce()
	for b := 0; b < banks; b++ {
		if occ := len(s.banks[b].q); occ != 0 {
			t.Fatalf("bank %d occupancy %d after quiesce, want 0", b, occ)
		}
	}
}

// benchBankedDevice builds a timing-only device with the banked drain
// scheduler on: 2 channels x 8 banks, queues 8 deep. The arrival
// interval is set so a uniform 16-bank stripe outpaces the 150ns write
// (each bank sees a write every 16x32 cycles > writeLat, queues drain)
// while a single-bank stream saturates its queue.
func benchBankedDevice() *Device {
	cfg := DefaultConfig()
	cfg.Banks = 8
	cfg.BankQueueDepth = 8
	d := New(cfg)
	d.arrival = 32
	return d
}

// BenchmarkBankSingleBankPathological is the worst case for the banked
// write-queue model: every write lands on the same bank, so the queue
// saturates and each write pays the drain-stall path. The reported
// drain_stalls/op metric should sit near 1 once the queue fills.
func BenchmarkBankSingleBankPathological(b *testing.B) {
	d := benchBankedDevice()
	a := addr.Phys(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.WriteBlock(a, nil)
	}
	b.ReportMetric(float64(d.DrainStalls())/float64(b.N), "drain_stalls/op")
}

// BenchmarkBankUniformInterleave is the best case: writes stripe
// uniformly across every channel and bank, so queues drain in the gaps
// and the scheduler's cost is just the per-bank lock and a queue append.
// bench-compare gating uses this as the uncontended reference.
func BenchmarkBankUniformInterleave(b *testing.B) {
	d := benchBankedDevice()
	nbanks := d.cfg.Banks * d.cfg.Channels
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.WriteBlock(addr.Phys(i%nbanks)*addr.BlockSize, nil)
	}
	b.ReportMetric(float64(d.DrainStalls())/float64(b.N), "drain_stalls/op")
}

// BenchmarkBankLegacyModel pins the cost of the path every existing
// configuration uses: bank modeling via the passive penalty heuristic,
// no scheduler allocated. This is the uncontended-regression guard for
// the refactor — the legacy write path must not have gotten slower.
func BenchmarkBankLegacyModel(b *testing.B) {
	d := New(DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.WriteBlock(addr.Phys(i%16)*addr.BlockSize, nil)
	}
}
