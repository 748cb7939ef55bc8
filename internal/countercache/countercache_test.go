package countercache

import (
	"reflect"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/ctr"
	"silentshredder/internal/nvm"
	"silentshredder/internal/obs"
)

func newCC(t *testing.T, cfg Config) (*Cache, *nvm.Device) {
	t.Helper()
	dev := nvm.New(nvm.DefaultConfig())
	return New(cfg, dev), dev
}

// devReads reads the device's block-read count from its stats set.
func devReads(d *nvm.Device) float64 {
	v, _ := d.StatsSet("nvm").Get("reads")
	return v
}

func smallCfg() Config {
	// 2 sets x 2 ways: pages 0..3 fill it, page 4 evicts.
	return Config{Size: 256, Assoc: 2, HitLatency: 10, BatteryBacked: true}
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Size != 4<<20 || cfg.Assoc != 8 || cfg.HitLatency != 10 {
		t.Fatalf("config = %+v", cfg)
	}
}

func TestMissThenHit(t *testing.T) {
	cc, dev := newCC(t, smallCfg())
	cb, lat, hit := cc.Get(7)
	if hit {
		t.Fatal("first access must miss")
	}
	if lat != 10+150 {
		t.Fatalf("miss latency = %d, want 160", lat)
	}
	if cb.Major != 0 {
		t.Fatal("fresh counter block must be zero")
	}
	if r := devReads(dev); r != 1 {
		t.Fatalf("device reads = %v", r)
	}
	_, lat, hit = cc.Get(7)
	if !hit || lat != 10 {
		t.Fatalf("second access: hit=%v lat=%d", hit, lat)
	}
}

// TestRehitMatchesGetHit pins Rehit to a Get that hits the most recently
// used way: same latency, statistics and events, and, since that hit
// moves no LRU state, the same victim on the set's next eviction.
func TestRehitMatchesGetHit(t *testing.T) {
	get, _ := newCC(t, smallCfg())
	re, _ := newCC(t, smallCfg())
	busGet, busRe := obs.NewBus(obs.Config{}), obs.NewBus(obs.Config{})
	get.SetBus(busGet)
	re.SetBus(busRe)
	// Pages 0 and 2 share a set; page 2 is fetched last, so it is the
	// set's most recently used way.
	for _, cc := range []*Cache{get, re} {
		cc.Get(0)
		cc.Get(2)
	}
	_, lat, hit := get.Get(2)
	if rlat := re.Rehit(2); !hit || rlat != lat {
		t.Fatalf("Rehit latency %d, Get hit=%v latency %d", rlat, hit, lat)
	}
	for _, cc := range []*Cache{get, re} {
		cc.Get(4) // evicts the set's LRU way, page 0
	}
	for _, p := range []addr.PageNum{0, 2, 4} {
		if a, b := get.tags.Probe(ctrAddr(p)) != nil, re.tags.Probe(ctrAddr(p)) != nil; a != b {
			t.Fatalf("page %d resident %v after Get hit, %v after Rehit", p, a, b)
		}
	}
	if get.tags.Hits() != re.tags.Hits() || get.tags.Misses() != re.tags.Misses() {
		t.Fatalf("hits/misses %d/%d after Get hit, %d/%d after Rehit",
			get.tags.Hits(), get.tags.Misses(), re.tags.Hits(), re.tags.Misses())
	}
	if a, b := busGet.Events(), busRe.Events(); !reflect.DeepEqual(a, b) {
		t.Fatalf("events %v after Get hit, %v after Rehit", a, b)
	}
}

func TestMutationVisibleThroughCache(t *testing.T) {
	cc, _ := newCC(t, smallCfg())
	cb, _, _ := cc.Get(1)
	cb.Shred()
	cc.MarkDirty(1)
	got := cc.Peek(1)
	if got.Major != 1 || !got.Shredded(0) {
		t.Fatalf("Peek = %+v", got)
	}
}

func TestDirtyEvictionPersists(t *testing.T) {
	cc, dev := newCC(t, smallCfg())
	cb, _, _ := cc.Get(0)
	cb.Major = 42
	cc.MarkDirty(0)
	// Pages mapping to set 0: counter addresses stride by 64B; with 2 sets,
	// even pages share set 0. Fill with pages 2 and 4 to evict page 0.
	cc.Get(2)
	cc.Get(4)
	if cc.writebacks.Value() != 1 {
		t.Fatalf("writebacks = %d", cc.writebacks.Value())
	}
	if got := cc.PersistedValue(0); got.Major != 42 {
		t.Fatalf("persisted Major = %d", got.Major)
	}
	if dev.Writes() != 1 {
		t.Fatalf("device writes = %d", dev.Writes())
	}
	// Re-fetch must see persisted value.
	cb0, _, hit := cc.Get(0)
	if hit {
		t.Fatal("page 0 must have been evicted")
	}
	if cb0.Major != 42 {
		t.Fatalf("refetched Major = %d", cb0.Major)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	cc, dev := newCC(t, smallCfg())
	cc.Get(0)
	cc.Get(2)
	cc.Get(4) // evicts clean line
	if cc.writebacks.Value() != 0 || dev.Writes() != 0 {
		t.Fatal("clean eviction must not write back")
	}
}

func TestWriteThrough(t *testing.T) {
	cfg := smallCfg()
	cfg.WriteThrough = true
	cc, dev := newCC(t, cfg)
	cb, _, _ := cc.Get(3)
	cb.Shred()
	cc.MarkDirty(3)
	if dev.Writes() != 1 {
		t.Fatalf("write-through must write immediately, writes=%d", dev.Writes())
	}
	if got := cc.PersistedValue(3); got.Major != 1 {
		t.Fatalf("persisted Major = %d", got.Major)
	}
	// Crash loses nothing.
	cc.Crash()
	if got := cc.PersistedValue(3); got.Major != 1 {
		t.Fatal("write-through state lost on crash")
	}
}

func TestCrashWithBatteryFlushes(t *testing.T) {
	cc, _ := newCC(t, smallCfg())
	cb, _, _ := cc.Get(5)
	cb.Shred()
	cc.MarkDirty(5)
	cc.Crash()
	if got := cc.PersistedValue(5); got.Major != 1 {
		t.Fatal("battery-backed crash must flush dirty counters")
	}
	if cc.Peek(5).Major != 1 {
		t.Fatal("post-crash Peek must read persisted value")
	}
}

func TestCrashWithoutBatteryLosesDirtyCounters(t *testing.T) {
	cfg := smallCfg()
	cfg.BatteryBacked = false
	cc, _ := newCC(t, cfg)
	cb, _, _ := cc.Get(5)
	cb.Shred()
	cc.MarkDirty(5)
	cc.Crash()
	if got := cc.PersistedValue(5); got.Major != 0 {
		t.Fatal("unbatteried write-back crash must lose the shred")
	}
}

func TestFlushKeepsContentsResident(t *testing.T) {
	cc, _ := newCC(t, smallCfg())
	cb, _, _ := cc.Get(1)
	cb.Major = 3
	cc.MarkDirty(1)
	cc.Flush()
	if cc.PersistedValue(1).Major != 3 {
		t.Fatal("flush must persist")
	}
	_, _, hit := cc.Get(1)
	if !hit {
		t.Fatal("flush must keep lines resident")
	}
	wb := cc.writebacks.Value()
	cc.Flush() // now clean: no further writebacks
	if cc.writebacks.Value() != wb {
		t.Fatal("flushing clean cache must be a no-op")
	}
}

func TestMarkDirtyNonResidentIsNoop(t *testing.T) {
	cc, dev := newCC(t, smallCfg())
	cc.MarkDirty(999)
	if dev.Writes() != 0 {
		t.Fatal("MarkDirty on non-resident page must be a no-op")
	}
}

func TestMissRateAndStats(t *testing.T) {
	cc, _ := newCC(t, smallCfg())
	cc.Get(0)
	cc.Get(0)
	if got := cc.MissRate(); got != 0.5 {
		t.Fatalf("MissRate = %v", got)
	}
	if cc.tags.Hits() != 1 || cc.tags.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d", cc.tags.Hits(), cc.tags.Misses())
	}
	s := cc.StatsSet()
	if v, ok := s.Get("fetches"); !ok || v != 1 {
		t.Fatalf("fetches stat = %v %v", v, ok)
	}
	cc.ResetStats()
	if cc.tags.Hits() != 0 {
		t.Fatal("ResetStats failed")
	}
}

// The counter region must persist full minor state, not just majors.
func TestMinorCountersPersistRoundTrip(t *testing.T) {
	cc, _ := newCC(t, smallCfg())
	cb, _, _ := cc.Get(2)
	for i := 0; i < addr.BlocksPerPage; i++ {
		cb.Minor[i] = uint8((i*3 + 1) % (ctr.MinorMax + 1))
	}
	cc.MarkDirty(2)
	cc.Flush()
	got := cc.PersistedValue(2)
	if got != *cb {
		t.Fatal("persisted minors differ from cached")
	}
}

// The persist hook must fire for every page a write-back persists, and
// must fire BEFORE the persisted region absorbs the new value — the
// integrity engine folds the page's pending update into the root while
// the old value is still the persisted truth (root-before-data).
func TestPersistHookFiresBeforePersist(t *testing.T) {
	cc, _ := newCC(t, smallCfg())
	type obsv struct {
		page           addr.PageNum
		persistedMajor uint64
	}
	var seen []obsv
	cc.SetPersistHook(func(p addr.PageNum) {
		seen = append(seen, obsv{p, cc.PersistedValue(p).Major})
	})
	cb, _, _ := cc.Get(0)
	cb.Major = 42
	cc.MarkDirty(0)
	cc.Get(2)
	cc.Get(4) // evicts dirty page 0
	if len(seen) != 1 || seen[0].page != 0 {
		t.Fatalf("hook calls = %+v, want one for page 0", seen)
	}
	if seen[0].persistedMajor != 0 {
		t.Fatalf("hook saw persisted Major %d; must run before the region absorbs 42",
			seen[0].persistedMajor)
	}
	if got := cc.PersistedValue(0); got.Major != 42 {
		t.Fatalf("eviction did not persist: Major = %d", got.Major)
	}
	// A full flush fires the hook once per remaining dirty page.
	cb2, _, _ := cc.Get(2)
	cb2.Major = 7
	cc.MarkDirty(2)
	seen = seen[:0]
	cc.Flush()
	if len(seen) != 1 || seen[0].page != 2 {
		t.Fatalf("flush hook calls = %+v, want one for page 2", seen)
	}
}

// Write-through mutations must NOT fire the persist hook: the
// controller orders the integrity update before MarkDirty on that path
// (root-before-data), so there is never a pending update to fold in —
// and firing the hook there would defeat the lazy engine's coalescing.
func TestPersistHookNotFiredOnWriteThrough(t *testing.T) {
	cfg := smallCfg()
	cfg.BatteryBacked = false
	cfg.WriteThrough = true
	cc, _ := newCC(t, cfg)
	fired := 0
	cc.SetPersistHook(func(addr.PageNum) { fired++ })
	cb, _, _ := cc.Get(0)
	cb.Major = 42
	cc.MarkDirty(0)
	cc.Flush()
	if fired != 0 {
		t.Fatalf("hook fired %d times on the write-through path, want 0", fired)
	}
	if got := cc.PersistedValue(0); got.Major != 42 {
		t.Fatalf("write-through did not persist: Major = %d", got.Major)
	}
}
