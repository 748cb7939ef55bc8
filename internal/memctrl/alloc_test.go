package memctrl

import (
	"bytes"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/ctr"
	"silentshredder/internal/nvm"
	"silentshredder/internal/physmem"
)

// TestSteadyStateReadZeroAllocs pins the controller's block-read path
// allocation-free once the touched pages exist: reads are the hottest
// simulator operation, and an allocation here shows up millions of times
// over an experiments sweep.
func TestSteadyStateReadZeroAllocs(t *testing.T) {
	dev := nvm.New(nvm.DefaultConfig())
	img := physmem.New(true)
	mc, err := New(DefaultConfig(SilentShredder), dev, img)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xa5}, addr.BlockSize)
	for i := 0; i < 64; i++ {
		a := addr.PageNum(i % 4).BlockAddr(i % addr.BlocksPerPage)
		img.Write(a, data)
		mc.WriteBlock(a)
	}
	buf := make([]byte, addr.BlockSize)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		mc.ReadBlock(addr.PageNum(i%4).BlockAddr(i%addr.BlocksPerPage), buf)
		i++
	}); n != 0 {
		t.Fatalf("steady-state ReadBlock allocates %v per call, want 0", n)
	}
}

// TestSteadyStateWriteZeroAllocs pins the block-write path (image store
// plus controller writeback) allocation-free over already-touched pages.
func TestSteadyStateWriteZeroAllocs(t *testing.T) {
	dev := nvm.New(nvm.DefaultConfig())
	img := physmem.New(true)
	mc, err := New(DefaultConfig(SilentShredder), dev, img)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5a}, addr.BlockSize)
	for i := 0; i < 64; i++ {
		a := addr.PageNum(i % 4).BlockAddr(i % addr.BlocksPerPage)
		img.Write(a, data)
		mc.WriteBlock(a)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		a := addr.PageNum(i % 4).BlockAddr(i % addr.BlocksPerPage)
		data[0] = byte(i)
		img.Write(a, data)
		mc.WriteBlock(a)
		i++
	}); n != 0 {
		t.Fatalf("steady-state WriteBlock allocates %v per call, want 0", n)
	}
}

// TestZeroPageDirectZeroAllocs pins the Baseline controller's page
// zeroing allocation-free over already-touched pages: every page fault on
// the paper's baseline encrypts and writes 64 zero blocks through it.
// Every 127th zeroing of a page overflows its minor counters and
// re-encrypts the page; the re-encrypting row does so on every call, so
// AllocsPerRun's whole-number average cannot absorb an allocation there.
func TestZeroPageDirectZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		reencrypt bool
	}{{"steady", false}, {"re-encrypting", true}} {
		t.Run(tc.name, func(t *testing.T) {
			mc := newZeroPageController(t)
			const runs = 1000
			reenc, i := mc.Reencryptions(), 0
			if n := testing.AllocsPerRun(runs, func() {
				p := addr.PageNum(i % 4)
				if tc.reencrypt {
					// Block 37's minor counter sits at the ceiling, so
					// the zeroing re-encrypts the page mid-way.
					cb, _, _ := mc.cc.Get(p)
					cb.Minor[37] = ctr.MinorMax
				}
				mc.ZeroPageDirect(p)
				i++
			}); n != 0 {
				t.Fatalf("ZeroPageDirect allocates %v per call, want 0", n)
			}
			if tc.reencrypt && mc.Reencryptions()-reenc != runs+1 {
				t.Fatalf("%d of %d zeroings re-encrypted", mc.Reencryptions()-reenc, runs+1)
			}
		})
	}
}

// TestCounterFetchAndDeuceWriteZeroAllocs pins two paths that feature
// configurations run on every operation: with ECC on, every counter
// cache miss fetches its line through ReadCounters, and with DEUCE on,
// every data write-back builds its ciphertext in deuceEncryptWrite. Both
// write into blocks the controller or the caller owns.
func TestCounterFetchAndDeuceWriteZeroAllocs(t *testing.T) {
	const runs = 1000
	t.Run("ECC ReadCounters", func(t *testing.T) {
		cfg := DefaultConfig(SilentShredder)
		cfg.ECC = true
		mc, err := New(cfg, nvm.New(nvm.DefaultConfig()), physmem.New(true))
		if err != nil {
			t.Fatal(err)
		}
		for p := addr.PageNum(0); p < 4; p++ {
			mc.WriteBlock(p.BlockAddr(0))
		}
		mc.Flush() // the four counter lines now exist on the device
		i := 0
		if n := testing.AllocsPerRun(runs, func() {
			mc.ReadCounters(ctrAddr(addr.PageNum(i % 4)))
			i++
		}); n != 0 {
			t.Fatalf("ReadCounters allocates %v per call, want 0", n)
		}
	})
	t.Run("DEUCE WriteBlock", func(t *testing.T) {
		mc, _, img := newDeuceMC(t, SilentShredder, 8, nvm.WriteAll)
		data := bytes.Repeat([]byte{0x3c}, addr.BlockSize)
		for i := 0; i < 64; i++ {
			a := addr.PageNum(i % 4).BlockAddr(i % addr.BlocksPerPage)
			img.Write(a, data)
			mc.WriteBlock(a)
		}
		i := 0
		if n := testing.AllocsPerRun(runs, func() {
			a := addr.PageNum(i % 4).BlockAddr(i % addr.BlocksPerPage)
			data[i%addr.BlockSize] = byte(i)
			img.Write(a, data)
			mc.WriteBlock(a)
			i++
		}); n != 0 {
			t.Fatalf("DEUCE WriteBlock allocates %v per call, want 0", n)
		}
	})
}

// newZeroPageController builds a Baseline controller with the functional
// data path on, and zeroes pages 0..3 once so their counter and device
// state exist.
func newZeroPageController(tb testing.TB) *Controller {
	tb.Helper()
	mc, err := New(DefaultConfig(Baseline), nvm.New(nvm.DefaultConfig()), physmem.New(true))
	if err != nil {
		tb.Fatal(err)
	}
	for p := addr.PageNum(0); p < 4; p++ {
		mc.ZeroPageDirect(p)
	}
	return mc
}

// BenchmarkZeroPageDirect times the baseline's page zeroing (64
// encrypted zero-block writes) on a Baseline controller over four
// already-touched pages.
func BenchmarkZeroPageDirect(b *testing.B) {
	mc := newZeroPageController(b)
	b.SetBytes(addr.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.ZeroPageDirect(addr.PageNum(i % 4))
	}
}

// BenchmarkReadBlockData measures the steady-state encrypted data read
// (counter fetch, pad generation, XOR) over a warm working set.
func BenchmarkReadBlockData(b *testing.B) {
	dev := nvm.New(nvm.DefaultConfig())
	img := physmem.New(true)
	mc, _ := New(DefaultConfig(SilentShredder), dev, img)
	data := bytes.Repeat([]byte{0xa5}, addr.BlockSize)
	for i := 0; i < 16*addr.BlocksPerPage; i++ {
		a := addr.PageNum(i / addr.BlocksPerPage).BlockAddr(i % addr.BlocksPerPage)
		img.Write(a, data)
		mc.WriteBlock(a)
	}
	buf := make([]byte, addr.BlockSize)
	b.SetBytes(addr.BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.ReadBlock(addr.PageNum(i%16).BlockAddr(i%addr.BlocksPerPage), buf)
	}
}
