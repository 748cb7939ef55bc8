package oracle_test

import (
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/oracle"
	"silentshredder/internal/sim"
	"silentshredder/internal/trace"
)

// FuzzBankSchedule fuzzes the banked-device stack: a seeded op stream
// replayed on a Silent Shredder machine whose bank geometry (bank count,
// queue depth, drain batch) comes from the fuzzer. The machine's
// architectural state must match the oracle's untimed projection of the
// same stream — the banked scheduler may only move *time*, never bytes —
// and the per-bank structural invariants must hold during the run and
// drain to empty at quiesce.
func FuzzBankSchedule(f *testing.F) {
	f.Add(int64(1), uint16(200), byte(4), byte(4))
	f.Add(int64(9), uint16(96), byte(1), byte(2))
	f.Add(int64(-3), uint16(300), byte(16), byte(8))

	f.Fuzz(func(t *testing.T, seed int64, nops uint16, banks, depth byte) {
		n := int(nops)%512 + 32 // bounded so one input stays fast
		w := oracle.Generate(oracle.GenConfig{
			Seed: seed, Ops: n, MaxAllocPages: 4, MaxLivePages: 96,
		})

		cfg := checkedConfig(personality{
			name: "banked", mode: personalities()[2].mode, zm: personalities()[2].zm,
		})
		cfg.NVM.Banks = 1 + int(banks)%16
		cfg.NVM.BankQueueDepth = 1 + int(depth)%8
		cfg.NVM.BankDrainBatch = 1 + int(depth)%4
		m, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt := m.Runtime(0)
		dev := m.MC.Device()
		for i, op := range w.Ops {
			if err := trace.Replay(rt, op); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if i%128 == 0 {
				if err := dev.CheckBankInvariants(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
		}

		// The untimed projection: feed the raw stream to a fresh oracle
		// and require every generated region's architectural contents to
		// match it byte for byte.
		ref := oracle.New()
		for _, op := range w.Ops {
			ref.Observe(op)
		}
		for i, r := range w.Regions {
			got := rt.LoadBytes(r.VA, r.Npages*addr.PageSize)
			if err := ref.CheckBytes(r.VA, got); err != nil {
				t.Fatalf("region %d: %v", i, err)
			}
		}

		// Drain everything; the posted-write queues must empty and all
		// machine-wide invariants (including the bank sweep) must hold.
		m.Hier.FlushAll()
		m.MC.Flush()
		s := dev.StatsSet("nvm")
		enq, _ := s.Get("wq_enqueued")
		drained, _ := s.Get("wq_drained")
		if enq != drained {
			t.Fatalf("%v writes queued, %v drained after flush", enq, drained)
		}
		if err := m.RunInvariantSweep(); err != nil {
			t.Fatal(err)
		}
	})
}
