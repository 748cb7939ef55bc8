package cache

import (
	"testing"

	"silentshredder/internal/addr"
)

// The fast-path lookups (LookupHit, LookupOwned) must be behaviorally
// indistinguishable from the general entry points they shortcut — same
// statistics, same LRU motion, same resident set afterwards. These tests
// pin that equivalence directly, in-package, so a future change to the
// SWAR rank machinery cannot silently skew one path.

func TestLookupHitMatchesLookup(t *testing.T) {
	a := New(Config{Name: "a", Size: 1024, Assoc: 4})
	b := New(Config{Name: "b", Size: 1024, Assoc: 4})
	// Mixed hit/miss traffic: MRU re-hits, non-MRU hits (LRU refresh),
	// and misses, all mirrored across the two instances.
	seq := []addr.Phys{0x000, 0x000, 0x400, 0x000, 0x800, 0x400, 0xC00}
	for _, ad := range seq {
		got := a.LookupHit(ad)
		want := b.Lookup(ad) != nil
		if got != want {
			t.Fatalf("LookupHit(%#x) = %v, Lookup = %v", ad, got, want)
		}
		if got {
			continue
		}
		a.Insert(ad, Shared, false)
		b.Insert(ad, Shared, false)
	}
	if a.Hits() != b.Hits() || a.Misses() != b.Misses() {
		t.Fatalf("stats diverged: %d/%d vs %d/%d", a.Hits(), a.Misses(), b.Hits(), b.Misses())
	}
	// LRU state must match too: force evictions and compare victims.
	va, ea := a.Insert(0x1000, Shared, false)
	vb, eb := b.Insert(0x1000, Shared, false)
	if ea != eb || va.Addr() != vb.Addr() {
		t.Fatalf("victims diverged: %#x/%v vs %#x/%v", va.Addr(), ea, vb.Addr(), eb)
	}
}

func TestLookupOwned(t *testing.T) {
	c := tiny()

	// Absent block: no line, no statistics.
	if l := c.LookupOwned(0x40); l != nil {
		t.Fatalf("absent block: LookupOwned = %v", l)
	}
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Fatalf("absent block must not count: %d/%d", c.Hits(), c.Misses())
	}

	// Shared line: present but not owned, still no statistics.
	c.Insert(0x40, Shared, false)
	if l := c.LookupOwned(0x40); l != nil {
		t.Fatalf("shared block: LookupOwned = %v", l)
	}
	if c.Hits() != 0 {
		t.Fatal("unowned lookup must not count a hit")
	}

	// Owned (Exclusive, then Modified): line returned, hit counted,
	// and the line made MRU — verified by who survives the next evictions.
	c.Insert(0x140, Exclusive, false) // same set as 0x40 (2 sets, 2 ways)
	l := c.LookupOwned(0x140)
	if l == nil || l.State() != Exclusive {
		t.Fatalf("exclusive block: LookupOwned = %v", l)
	}
	if c.Hits() != 1 {
		t.Fatalf("owned lookup must count one hit, got %d", c.Hits())
	}
	l.SetState(Modified)
	l.SetDirty(true)
	if l2 := c.LookupOwned(0x140); l2 != l || l2.State() != Modified || !l2.Dirty() {
		t.Fatalf("modified block: LookupOwned = %v", l2)
	}
	// 0x140 was touched most recently, so 0x40 must be the victim.
	victim, evicted := c.Insert(0x240, Shared, false)
	if !evicted || victim.Addr() != 0x40 {
		t.Fatalf("victim = %#x/%v, want 0x40 (owned lookup must refresh LRU)", victim.Addr(), evicted)
	}
}

func TestForEachLine(t *testing.T) {
	c := tiny()
	c.Insert(0x000, Modified, true)
	c.Insert(0x040, Shared, false)
	got := map[addr.Phys]State{}
	c.ForEachLine(func(l Line) { got[l.Addr()] = l.State })
	if len(got) != 2 || got[0x000] != Modified || got[0x040] != Shared {
		t.Fatalf("ForEachLine saw %v", got)
	}
	c.FlushAll(nil)
	n := 0
	c.ForEachLine(func(Line) { n++ })
	if n != 0 {
		t.Fatalf("ForEachLine after FlushAll visited %d lines", n)
	}
}

func TestConfigAccessor(t *testing.T) {
	cfg := Config{Name: "t", Size: 256, Assoc: 2, HitLatency: 7}
	if got := New(cfg).Config(); got != cfg {
		t.Fatalf("Config() = %+v, want %+v", got, cfg)
	}
}
