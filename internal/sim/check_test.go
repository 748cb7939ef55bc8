package sim

import (
	"fmt"
	"strings"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/apprt"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
)

func checkedTestConfig(mode memctrl.Mode, zm kernel.ZeroMode) Config {
	cfg := testConfig(mode, zm)
	cfg.CheckOracle = true
	cfg.CheckEvery = 256
	return cfg
}

func TestCheckConfigValidation(t *testing.T) {
	cfg := checkedTestConfig(memctrl.SilentShredder, kernel.ZeroNone)
	if _, err := New(cfg); err == nil {
		t.Fatal("CheckOracle with ZeroNone must be rejected")
	}
	for _, opt := range []memctrl.ShredOption{memctrl.OptionIncMinors, memctrl.OptionIncMajor} {
		cfg := checkedTestConfig(memctrl.SilentShredder, kernel.ZeroShred)
		cfg.MemCtrl.Shred = opt
		if _, err := New(cfg); err == nil {
			t.Fatalf("CheckOracle with shred option %v must be rejected", opt)
		}
	}
	// CheckOracle implies the functional data path.
	cfg = checkedTestConfig(memctrl.SilentShredder, kernel.ZeroShred)
	cfg.StoreData = false
	m := MustNew(cfg)
	if !m.Img.Enabled() {
		t.Fatal("CheckOracle must force StoreData")
	}
}

func TestCheckedRuntimeVerifiesLoads(t *testing.T) {
	m := MustNew(checkedTestConfig(memctrl.SilentShredder, kernel.ZeroShred))
	rt := m.Runtime(0)
	va := rt.Malloc(8 * addr.PageSize)
	for i := 0; i < 8*addr.PageSize/8; i++ {
		rt.Store(va+addr.Virt(i*8), uint64(i))
	}
	for i := 0; i < 8*addr.PageSize/8; i++ {
		if got := rt.Load(va + addr.Virt(i*8)); got != uint64(i) {
			t.Fatalf("load %d = %d", i, got)
		}
	}
	c := m.Checker()
	if c == nil {
		t.Fatal("no checker attached")
	}
	if c.LoadsChecked() == 0 || c.ops == 0 {
		t.Fatalf("checker idle: loads=%d ops=%d", c.LoadsChecked(), c.ops)
	}
	if c.sweeps == 0 {
		t.Fatalf("no sweeps after %d ops with CheckEvery=%d", c.ops, m.Cfg.CheckEvery)
	}
	if !strings.Contains(m.CheckReport(), "no violations") {
		t.Fatalf("report = %q", m.CheckReport())
	}
}

// TestSweepDetectsViolations plants one violation per row on a clean
// checked machine and requires the net to catch it. Each machine holds
// one written-back page at va, backed by frame ppn; a row's detect runs
// the invariant sweep unless the violation is one a load must catch.
func TestSweepDetectsViolations(t *testing.T) {
	shred := func(m *Machine, rt *apprt.Runtime, va addr.Virt, ppn addr.PageNum) {
		m.MC.Shred(ppn)
		m.Hier.ShredInvalidate(ppn)
		// Out-of-band architectural event: tell the oracle.
		m.Checker().Oracle(rt.Process().PID).ZeroRange(va, 1)
	}
	sweep := func(t *testing.T, m *Machine) {
		t.Helper()
		if err := m.RunInvariantSweep(); err != nil {
			t.Fatalf("unplanted state failed the sweep: %v", err)
		}
	}
	rows := []struct {
		name  string
		plant func(t *testing.T, m *Machine, rt *apprt.Runtime, va addr.Virt, ppn addr.PageNum)
		load  bool // detected by a checked load of va, not by the sweep
		want  string
	}{
		{
			// A byte flipped in architectural memory behind the oracle's
			// back fails the oracle/image agreement pass.
			name: "image-corruption",
			plant: func(t *testing.T, m *Machine, rt *apprt.Runtime, va addr.Virt, ppn addr.PageNum) {
				m.Img.Write(ppn.Addr(), []byte{0xEE})
			},
			want: "contract requires",
		},
		{
			// A write leaking through the shared CoW zero page is visible
			// to every process.
			name: "zero-page-corruption",
			plant: func(t *testing.T, m *Machine, rt *apprt.Runtime, va addr.Virt, ppn addr.PageNum) {
				m.Img.Write(m.Kernel.ZeroPPN().Addr()+5, []byte{1})
			},
			want: "zero page",
		},
		{
			// Rolling a shred's major counter back is the replay attack
			// the integrity machinery exists to prevent.
			name: "major-rollback",
			plant: func(t *testing.T, m *Machine, rt *apprt.Runtime, va addr.Virt, ppn addr.PageNum) {
				before := m.MC.CounterCache().SnapshotRegion()
				shred(m, rt, va, ppn)
				sweep(t, m)
				m.MC.CounterCache().RestoreRegion(before)
			},
			want: "major counter rolled back",
		},
		{
			// A write back bumps a minor counter; rolling it back under
			// the same major is a replay too.
			name: "minor-rollback",
			plant: func(t *testing.T, m *Machine, rt *apprt.Runtime, va addr.Virt, ppn addr.PageNum) {
				before := m.MC.CounterCache().SnapshotRegion()
				rt.Store(va, 8)
				m.Hier.FlushAll()
				m.MC.Flush()
				sweep(t, m)
				m.MC.CounterCache().RestoreRegion(before)
			},
			want: "minor counter rolled back",
		},
		{
			// A block under the reserved shredded minor counter that no
			// cache holds must read as zeros.
			name: "shredded-block-not-zero",
			plant: func(t *testing.T, m *Machine, rt *apprt.Runtime, va addr.Virt, ppn addr.PageNum) {
				shred(m, rt, va, ppn)
				sweep(t, m)
				m.Img.Write(ppn.BlockAddr(1), []byte{0xEE})
			},
			want: "reserved shredded counter",
		},
		{
			// A load whose bytes differ from the oracle's panics at once.
			// The block is cached first, so the controller's plaintext
			// check on the NVM read does not catch it before the oracle.
			name: "load-mismatch",
			plant: func(t *testing.T, m *Machine, rt *apprt.Runtime, va addr.Virt, ppn addr.PageNum) {
				rt.Load(va)
				m.Img.Write(ppn.Addr(), []byte{0xEE})
			},
			load: true,
			want: "architectural contract violated",
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			m := MustNew(checkedTestConfig(memctrl.SilentShredder, kernel.ZeroShred))
			rt := m.Runtime(0)
			va := rt.Malloc(addr.PageSize)
			rt.Store(va, 7)
			pte, _ := rt.Process().AS.Lookup(va.Page())
			m.Hier.FlushAll()
			m.MC.Flush()
			sweep(t, m)

			row.plant(t, m, rt, va, pte.PPN)
			var err error
			if row.load {
				func() {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("%v", r)
						}
					}()
					rt.Load(va)
				}()
			} else {
				err = m.RunInvariantSweep()
			}
			if err == nil {
				t.Fatal("planted violation went undetected")
			}
			if !strings.Contains(err.Error(), row.want) {
				t.Fatalf("violation %q, want one naming %q", err, row.want)
			}
		})
	}
}
