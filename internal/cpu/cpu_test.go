package cpu

import (
	"testing"
	"testing/quick"

	"silentshredder/internal/clock"
)

func TestComputeIPC(t *testing.T) {
	c := New(0)
	if c.IPC() != 0 {
		t.Fatal("idle core IPC must be 0")
	}
	c.Compute(100)
	if c.Cycles() != 100 || c.Instructions() != 100 {
		t.Fatalf("cycles/instr = %d/%d", c.Cycles(), c.Instructions())
	}
	if c.IPC() != 1 {
		t.Fatalf("pure compute IPC = %v, want 1", c.IPC())
	}
}

func TestLoadStallsReduceIPC(t *testing.T) {
	c := New(0)
	c.Compute(100)
	c.Load(99) // 1 + 99 cycles
	if c.Instructions() != 101 || c.Cycles() != 200 {
		t.Fatalf("instr/cycles = %d/%d", c.Instructions(), c.Cycles())
	}
	if got := c.IPC(); got != 0.505 {
		t.Fatalf("IPC = %v", got)
	}
	if c.MeanLoadStall() != 99 {
		t.Fatalf("MeanLoadStall = %v", c.MeanLoadStall())
	}
	if c.Loads() != 1 {
		t.Fatalf("Loads = %d", c.Loads())
	}
}

func TestStoreOccupancy(t *testing.T) {
	c := New(0)
	c.Store(4)
	if c.Cycles() != 5 || c.Instructions() != 1 {
		t.Fatalf("store accounting: %d cycles %d instr", c.Cycles(), c.Instructions())
	}
}

func TestStallRetiresNothing(t *testing.T) {
	c := New(0)
	c.Stall(50)
	if c.Cycles() != 50 || c.Instructions() != 0 {
		t.Fatal("stall accounting wrong")
	}
}

func TestReset(t *testing.T) {
	c := New(3)
	c.Compute(10)
	c.Load(5)
	c.Reset()
	if c.Cycles() != 0 || c.Instructions() != 0 || c.MeanLoadStall() != 0 {
		t.Fatal("reset failed")
	}
	if c.ID != 3 {
		t.Fatal("reset must keep identity")
	}
}

// Property: IPC is always in (0, 1] and cycles >= instructions.
func TestIPCBoundedProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		c := New(0)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				c.Compute(uint64(op))
			case 1:
				c.Load(clock.Cycles(op))
			case 2:
				c.Store(clock.Cycles(op % 8))
			}
		}
		if c.Instructions() == 0 {
			return true
		}
		return uint64(c.Cycles()) >= c.Instructions() && c.IPC() <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatsSet(t *testing.T) {
	c := New(0)
	c.Compute(5)
	s := c.StatsSet("core0")
	if v, ok := s.Get("ipc"); !ok || v != 1 {
		t.Fatalf("ipc = %v %v", v, ok)
	}
}
