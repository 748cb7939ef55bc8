package memctrl

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/clock"
	"silentshredder/internal/countercache"
	"silentshredder/internal/ctr"
	"silentshredder/internal/fault"
	"silentshredder/internal/nvm"
	"silentshredder/internal/obs"
	"silentshredder/internal/physmem"
	"silentshredder/internal/span"
	"silentshredder/internal/wearlevel"
)

// zeroPageRef is the per-block page zeroing that ZeroPageDirect does as
// one page operation: each block fetches its page's counters through
// the counter cache, reads its zeroed plaintext from the image and
// encrypts it with its own pad.
func zeroPageRef(mc *Controller, p addr.PageNum) clock.Cycles {
	mc.img.ZeroPage(p)
	var lat clock.Cycles
	for i := 0; i < addr.BlocksPerPage; i++ {
		lat += mc.writeBlockCause(p.BlockAddr(i), true)
	}
	mc.drainFaultWork()
	return lat
}

// zeroPageRig is one controller with everything the differential test
// compares attached.
type zeroPageRig struct {
	mc    *Controller
	dev   *nvm.Device
	img   *physmem.Image
	inj   *fault.Injector
	bus   *obs.Bus
	spans *span.Recorder
	lats  []clock.Cycles
}

// zeroPageConfig is one controller configuration of the differential
// test.
type zeroPageConfig struct {
	name      string
	mode      Mode
	edit      func(*Config)
	timing    bool    // image and device data storage off
	faultRate float64 // fault injection rate; 0 = no injector
}

func newZeroPageRig(t *testing.T, zc zeroPageConfig) *zeroPageRig {
	t.Helper()
	devCfg := nvm.DefaultConfig()
	devCfg.StoreData = !zc.timing
	r := &zeroPageRig{dev: nvm.New(devCfg), img: physmem.New(!zc.timing)}
	cfg := DefaultConfig(zc.mode)
	// Four sets of two ways: pages p, p+4 and p+8 contend for one set,
	// so the traffic after a zeroing evicts by LRU order.
	cfg.CounterCache = countercache.Config{Size: 8 * addr.BlockSize, Assoc: 2, HitLatency: 10, BatteryBacked: true}
	if zc.edit != nil {
		zc.edit(&cfg)
	}
	if zc.faultRate > 0 {
		r.inj = fault.New(fault.Config{Seed: 7, StuckPerWrite: zc.faultRate, ReadFlip: zc.faultRate,
			DropWrite: zc.faultRate, TornWrite: zc.faultRate})
		r.inj.SetWriteProtect(wearlevel.SpareBase)
		r.dev.SetInjector(r.inj)
		cfg.ECC = true
	}
	mc, err := New(cfg, r.dev, r.img)
	if err != nil {
		t.Fatal(err)
	}
	if mc.ecc != nil {
		mc.ecc.pageLines = 2
	}
	r.mc = mc
	r.bus = obs.NewBus(obs.Config{})
	r.spans = span.NewRecorder(span.Config{})
	mc.SetBus(r.bus)
	mc.SetSpans(r.spans)
	if r.inj != nil {
		r.inj.SetBus(r.bus)
		mc.SetFaultSink(&sinkRecorder{})
	}
	return r
}

// store writes a pattern into block a of the image and writes it back.
func (r *zeroPageRig) store(a addr.Phys, v byte) {
	r.img.Write(a, bytes.Repeat([]byte{v}, addr.BlockSize))
	r.mc.WriteBlock(a)
}

// zero zeroes page p with zeroPage inside an OpZero span, as the
// kernel's page-clear path does, and records the returned latency.
func (r *zeroPageRig) zero(zeroPage func(*Controller, addr.PageNum) clock.Cycles, p addr.PageNum) {
	r.spans.Begin(span.OpZero, uint64(p.Addr()))
	lat := zeroPage(r.mc, p)
	r.spans.End(uint64(lat))
	r.lats = append(r.lats, lat)
}

// traffic reads and writes blocks of pages p+8, p+4, p and p+1. The
// first three share p's counter-cache set, and the first write evicts
// from it, so a wrong LRU order left by a zeroing of p shows up as a
// different victim, hit count or write-back.
func (r *zeroPageRig) traffic(p addr.PageNum, v byte) {
	buf := make([]byte, addr.BlockSize)
	for k, q := range []addr.PageNum{p + 8, p + 4, p, p + 1, p + 8} {
		r.store(q.BlockAddr(k*9%addr.BlocksPerPage), v+byte(k))
		r.mc.ReadBlock(p.BlockAddr(k), buf)
		r.mc.ReadBlock(q.BlockAddr(k*9%addr.BlocksPerPage), buf)
	}
}

// state renders everything the differential test compares, other than
// the event and span records: device contents, image contents, cached
// and persisted counters, and every registered statistic.
func (r *zeroPageRig) state() string {
	var b bytes.Buffer
	r.dev.ForEachPage(func(p addr.PageNum, data *[addr.PageSize]byte) {
		fmt.Fprintf(&b, "dev %v %x\n", p, data[:])
	})
	img := r.img.Snapshot()
	pages := make([]addr.PageNum, 0, len(img))
	for p := range img {
		pages = append(pages, p)
	}
	slices.Sort(pages)
	for _, p := range pages {
		fmt.Fprintf(&b, "img %v %x\n", p, img[p])
	}
	r.mc.cc.ForEachCurrent(func(p addr.PageNum, cb ctr.CounterBlock) {
		fmt.Fprintf(&b, "current %v %+v\n", p, cb)
	})
	r.mc.cc.ForEachPersisted(func(p addr.PageNum, cb ctr.CounterBlock) {
		fmt.Fprintf(&b, "persisted %v %+v\n", p, cb)
	})
	b.WriteString(r.mc.StatsSet().String())
	b.WriteString(r.mc.cc.StatsSet().String())
	b.WriteString(r.dev.StatsSet("nvm").String())
	if r.mc.tree != nil {
		b.WriteString(r.mc.tree.StatsSet().String())
	}
	if r.inj != nil {
		b.WriteString(r.inj.StatsSet("faults").String())
	}
	fmt.Fprintf(&b, "latencies %v\n", r.lats)
	return b.String()
}

// TestZeroPageDirectMatchesPerBlockLoop pins ZeroPageDirect, which
// fetches a page's counters once and generates its pads in one pass, to
// zeroPageRef's per-block loop, across controller configurations and
// page states: device and image bytes, cached and persisted counters,
// every registered statistic, the event sequence, the span records and
// the returned latencies must all agree, including after further
// counter-cache traffic.
func TestZeroPageDirectMatchesPerBlockLoop(t *testing.T) {
	configs := []zeroPageConfig{
		{name: "baseline", mode: Baseline},
		{name: "shredder", mode: SilentShredder},
		{name: "write-through", mode: Baseline, edit: func(c *Config) { c.CounterCache.WriteThrough = true }},
		{name: "merkle-eager", mode: Baseline, edit: func(c *Config) { c.Integrity = true }},
		{name: "merkle-lazy", mode: SilentShredder, edit: func(c *Config) {
			c.Integrity = true
			c.IntegrityCfg.DirtyCacheNodes = 1024
		}},
		{name: "merkle-lazy-write-through", mode: Baseline, edit: func(c *Config) {
			c.Integrity = true
			c.IntegrityCfg.DirtyCacheNodes = 1024
			c.CounterCache.WriteThrough = true
		}},
		{name: "deuce", mode: Baseline, edit: func(c *Config) { c.DEUCE = true }},
		{name: "plaintext", mode: Baseline, edit: func(c *Config) { c.DisableEncryption = true }},
		{name: "timing-only", mode: Baseline, timing: true},
		{name: "write-queue", mode: Baseline, edit: func(c *Config) { c.WriteQueueDepth = 8 }},
		{name: "faults", mode: Baseline, faultRate: 0.05},
		{name: "faults-merkle", mode: SilentShredder, faultRate: 0.05, edit: func(c *Config) { c.Integrity = true }},
	}
	const p = addr.PageNum(21)
	const hot = 37
	pages := []struct {
		name string
		prep func(r *zeroPageRig)
	}{
		{"cached", func(r *zeroPageRig) {}},
		{"cached-lru", func(r *zeroPageRig) {
			// Page p+4 becomes the most recently used way of p's set.
			r.store((p + 4).BlockAddr(1), 0x44)
		}},
		{"evicted", func(r *zeroPageRig) {
			// Pages p+4 and p+8 fill p's two-way set.
			r.store((p + 4).BlockAddr(1), 0x44)
			r.store((p + 8).BlockAddr(2), 0x48)
		}},
		{"overflow", func(r *zeroPageRig) {
			// Block hot's minor counter reaches the ceiling, so the
			// zeroing re-encrypts the page at that block.
			for w := 0; r.mc.cc.Peek(p).Minor[hot] < ctr.MinorMax; w++ {
				r.store(p.BlockAddr(hot), byte(w))
			}
		}},
	}
	for _, zc := range configs {
		for _, pg := range pages {
			t.Run(zc.name+"/"+pg.name, func(t *testing.T) {
				got, want := newZeroPageRig(t, zc), newZeroPageRig(t, zc)
				for _, r := range []*zeroPageRig{got, want} {
					for i := 0; i < addr.BlocksPerPage; i += 3 {
						r.store(p.BlockAddr(i), byte(0x10+i))
					}
					r.store((p + 1).BlockAddr(5), 0x51)
					if zc.mode == SilentShredder {
						r.mc.Shred(p + 1)
					}
					pg.prep(r)
				}
				ctrMisses := func() float64 { v, _ := want.mc.cc.StatsSet().Get("misses"); return v }
				reenc, misses := want.mc.Reencryptions(), ctrMisses()
				got.zero((*Controller).ZeroPageDirect, p)
				want.zero(zeroPageRef, p)
				if fetched := ctrMisses() > misses; fetched != (pg.name == "evicted") {
					t.Fatalf("the zeroing fetched the page's counters: %v", fetched)
				}
				if pg.name == "overflow" && want.mc.Reencryptions() == reenc {
					t.Fatal("the overflow page's zeroing did not re-encrypt it")
				}
				got.traffic(p, 0x60)
				want.traffic(p, 0x60)
				got.zero((*Controller).ZeroPageDirect, p+4)
				want.zero(zeroPageRef, p+4)
				got.zero((*Controller).ZeroPageDirect, p)
				want.zero(zeroPageRef, p)
				got.traffic(p, 0x70)
				want.traffic(p, 0x70)
				got.mc.Flush()
				want.mc.Flush()
				if in := want.inj; in != nil && in.ReadFlips()+in.DroppedWrites()+in.TornWrites()+in.StuckCells() == 0 {
					t.Fatal("the injector injected no fault")
				}

				if g, w := got.state(), want.state(); g != w {
					t.Fatalf("state differs from the per-block loop:\n got %s\nwant %s", firstDiff(g, w), firstDiff(w, g))
				}
				if g, w := got.bus.Events(), want.bus.Events(); !reflect.DeepEqual(g, w) {
					t.Fatalf("events differ: %d vs %d events", len(g), len(w))
				}
				if g, w := got.spans.Spans(), want.spans.Spans(); !reflect.DeepEqual(g, w) {
					t.Fatalf("spans differ:\n got %+v\nwant %+v", g, w)
				}
			})
		}
	}
}

// firstDiff returns the start of the line of a at which a and b first
// differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			return fmt.Sprintf("line %d: %.200s", i, al[i])
		}
	}
	return "(prefix of the other)"
}
