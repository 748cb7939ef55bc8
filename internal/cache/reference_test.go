package cache

import (
	"fmt"
	"testing"

	"silentshredder/internal/addr"
)

// refWay is one way of the reference model: the obvious
// array-of-structs layout, with a per-way recency stamp.
type refWay struct {
	valid bool
	tag   uint64
	state State
	dirty bool
	stamp uint64
}

// refCache is the reference tag store FuzzCacheReference checks Cache
// against. It keeps no rank words or packed ways: a probe scans the set,
// a victim is the first invalid way or else the least recently touched
// one, and a page invalidation scans every way.
type refCache struct {
	assoc, nsets int
	ways         []refWay
	clock        uint64
	hits, misses uint64
}

func newRefCache(cfg Config) *refCache {
	nsets := cfg.Size / (cfg.Assoc * addr.BlockSize)
	return &refCache{assoc: cfg.Assoc, nsets: nsets, ways: make([]refWay, nsets*cfg.Assoc)}
}

func (r *refCache) set(a addr.Phys) ([]refWay, uint64) {
	tag := tagOf(a)
	base := int(tag%uint64(r.nsets)) * r.assoc
	return r.ways[base : base+r.assoc], tag
}

func (r *refCache) find(a addr.Phys) *refWay {
	w, _ := r.findWay(a)
	return w
}

// findWay returns the way holding block a and its index in the set, or
// nil and -1.
func (r *refCache) findWay(a addr.Phys) (*refWay, int) {
	ways, tag := r.set(a)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			return &ways[i], i
		}
	}
	return nil, -1
}

func (r *refCache) touch(w *refWay) {
	r.clock++
	w.stamp = r.clock
}

func (r *refCache) lookup(a addr.Phys) *refWay {
	w := r.find(a)
	if w == nil {
		r.misses++
		return nil
	}
	r.hits++
	r.touch(w)
	return w
}

func (r *refCache) lookupOwned(a addr.Phys) *refWay {
	w := r.find(a)
	if w == nil || w.state != Modified && w.state != Exclusive {
		return nil
	}
	r.hits++
	r.touch(w)
	return w
}

// insert returns the victim, whether there was one, and the index in
// the set of the way that holds block a afterwards.
func (r *refCache) insert(a addr.Phys, st State, dirty bool) (Line, bool, int) {
	if w, i := r.findWay(a); w != nil {
		w.state = st
		w.dirty = w.dirty || dirty
		r.touch(w)
		return Line{}, false, i
	}
	ways, tag := r.set(a)
	vi := -1
	for i := range ways {
		if !ways[i].valid {
			vi = i
			break
		}
	}
	var victim Line
	evicted := false
	if vi < 0 {
		vi = 0
		for i := range ways {
			if ways[i].stamp < ways[vi].stamp {
				vi = i
			}
		}
		v := &ways[vi]
		victim, evicted = Line{Tag: v.tag, State: v.state, Dirty: v.dirty}, true
	}
	ways[vi] = refWay{valid: true, tag: tag, state: st, dirty: dirty}
	r.touch(&ways[vi])
	return victim, evicted, vi
}

// mru returns the most recently touched valid way of block a's set, or
// nil when the set holds no block.
func (r *refCache) mru(a addr.Phys) *refWay {
	ways, _ := r.set(a)
	var m *refWay
	for i := range ways {
		if ways[i].valid && (m == nil || ways[i].stamp > m.stamp) {
			m = &ways[i]
		}
	}
	return m
}

func (r *refCache) invalidate(a addr.Phys) (Line, bool) {
	w := r.find(a)
	if w == nil {
		return Line{}, false
	}
	l := Line{Tag: w.tag, State: w.state, Dirty: w.dirty}
	w.valid = false
	return l, true
}

func (r *refCache) invalidatePage(p addr.PageNum) int {
	n := 0
	for i := range r.ways {
		if w := &r.ways[i]; w.valid && addr.Phys(w.tag<<addr.BlockShift).Page() == p {
			w.valid = false
			n++
		}
	}
	return n
}

// lines returns every valid line in way order: ForEachLine's order, and
// FlushAll's when filtered to dirty lines.
func (r *refCache) lines(dirtyOnly bool) []Line {
	var out []Line
	for _, w := range r.ways {
		if w.valid && (w.dirty || !dirtyOnly) {
			out = append(out, Line{Tag: w.tag, State: w.state, Dirty: w.dirty})
		}
	}
	return out
}

func (r *refCache) flushAll() []Line {
	out := r.lines(true)
	for i := range r.ways {
		r.ways[i].valid = false
	}
	return out
}

// refGeometries are the shapes FuzzCacheReference chooses from: direct
// mapped; 4-way with fewer sets than a page has blocks, so a page wraps
// over the sets; and 8-way with exactly 64 sets, so block i of every
// page shares set i.
var refGeometries = []Config{
	{Name: "direct", Size: 64 * 64, Assoc: 1},
	{Name: "wrap", Size: 16 * 4 * 64, Assoc: 4},
	{Name: "pageset", Size: 64 * 8 * 64, Assoc: 8},
}

// refPages are the pages scripts address: three low frames and
// thirteen pages of the counter region (countercache.RegionBase, 2^46),
// whose tags use the high bits of a way's tag field. Sixteen pages give
// the 64-set geometry sets with more blocks than ways.
var refPages = func() []addr.PageNum {
	ps := []addr.PageNum{0, 1, 2}
	region := addr.Phys(1 << 46).Page()
	for k := addr.PageNum(0); k < 13; k++ {
		ps = append(ps, region+k)
	}
	return ps
}()

// FuzzCacheReference runs a byte script against Cache and refCache side
// by side. The first byte picks a geometry; then every three bytes are
// one operation:
//
//	op    bits 0-6: operation (mod 15); bit 7: LookupOwned and Probe
//	      also set the returned line's state and dirty bit
//	page  bits 0-3: page index; bits 4-6: byte offset within the block
//	      (in 8-byte steps), and the way (mod the associativity) that
//	      HitAt, At and InvalidateAt pass; bit 7: the dirty flag
//	block bits 0-5: block index; bits 6-7: the state
//
// Operation 9, Fill, runs only when the model holds no copy of the
// block: its contract is a block the caller knows is absent. Operation
// 11, Hit, runs only when the model's most recently touched way of the
// block's set holds the block: its contract is a block the caller knows
// is the most recently used of its set. Operations 12 to 14, HitAt, At
// (which then sets the line's state and dirty bit) and InvalidateAt,
// run only when the model holds the block at the way passed: their
// contract is a block the caller knows sits there. After every
// operation it compares the return values, the victim, the way Fill
// used, the two counters and the contents of every way.
func FuzzCacheReference(f *testing.F) {
	f.Add([]byte{0, 4, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 9, 0, 0, 10, 0, 0, 9, 0x81, 0x41, 9, 0, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		cfg := refGeometries[int(script[0])%len(refGeometries)]
		c, r := New(cfg), newRefCache(cfg)
		script = script[1:]
		for step := 0; len(script) >= 3; step++ {
			op, pb, bb := script[0], script[1], script[2]
			script = script[3:]
			p := refPages[int(pb&15)%len(refPages)]
			a := p.BlockAddr(int(bb&63)) + addr.Phys(pb>>4&7)<<3
			st, dirty := State(bb>>6), pb&0x80 != 0
			way := int(pb>>4&7) % cfg.Assoc
			kind := (op & 0x7f) % 15
			where := func() string { return fmt.Sprintf("%s step %d op %d %v", cfg.Name, step, kind, a) }
			switch kind {
			case 0:
				got, want := c.Lookup(a), r.lookup(a)
				checkWay(t, where(), got, want)
			case 1:
				if got, want := c.LookupHit(a), r.lookup(a) != nil; got != want {
					t.Fatalf("%s: LookupHit = %v, want %v", where(), got, want)
				}
			case 2:
				got, want := c.LookupOwned(a), r.lookupOwned(a)
				checkWay(t, where(), got, want)
				if got != nil && op&0x80 != 0 {
					got.SetState(st)
					got.SetDirty(dirty)
					want.state, want.dirty = st, dirty
				}
			case 3:
				got, want := c.Probe(a), r.find(a)
				checkWay(t, where(), got, want)
				if got != nil && op&0x80 != 0 {
					got.SetState(st)
					got.SetDirty(dirty)
					want.state, want.dirty = st, dirty
				}
			case 4:
				v, ev := c.Insert(a, st, dirty)
				wv, wev, _ := r.insert(a, st, dirty)
				if v != wv || ev != wev {
					t.Fatalf("%s: Insert = %+v/%v, want %+v/%v", where(), v, ev, wv, wev)
				}
			case 5:
				l, ok := c.Invalidate(a)
				wl, wok := r.invalidate(a)
				if l != wl || ok != wok {
					t.Fatalf("%s: Invalidate = %+v/%v, want %+v/%v", where(), l, ok, wl, wok)
				}
			case 6:
				if got, want := c.InvalidatePageCount(p), r.invalidatePage(p); got != want {
					t.Fatalf("%s: InvalidatePageCount(%v) = %d, want %d", where(), p, got, want)
				}
			case 7:
				var got []Line
				c.FlushAll(func(l Line) { got = append(got, l) })
				checkLines(t, where()+" FlushAll", got, r.flushAll())
			case 8:
				var got []Line
				c.ForEachLine(func(l Line) { got = append(got, l) })
				checkLines(t, where()+" ForEachLine", got, r.lines(false))
			case 9:
				if r.find(a) == nil {
					v, ev, w := c.Fill(a, st, dirty)
					wv, wev, ww := r.insert(a, st, dirty)
					if v != wv || ev != wev || w != ww {
						t.Fatalf("%s: Fill = %+v/%v/way %d, want %+v/%v/way %d", where(), v, ev, w, wv, wev, ww)
					}
				}
			case 10:
				c.Miss()
				r.misses++
			case 11:
				if w := r.mru(a); w != nil && w.tag == tagOf(a) {
					c.Hit()
					r.hits++
				}
			case 12, 13, 14:
				w, i := r.findWay(a)
				if w == nil || i != way {
					break
				}
				switch kind {
				case 12:
					c.HitAt(a, way)
					r.hits++
					r.touch(w)
				case 13:
					got := c.At(a, way)
					checkWay(t, where(), got, w)
					got.SetState(st)
					got.SetDirty(dirty)
					w.state, w.dirty = st, dirty
				case 14:
					l := c.InvalidateAt(a, way)
					if wl, _ := r.invalidate(a); l != wl {
						t.Fatalf("%s: InvalidateAt(way %d) = %+v, want %+v", where(), way, l, wl)
					}
				}
			}
			checkAgainstRef(t, where(), c, r)
		}
	})
}

func checkWay(t *testing.T, where string, got *Way, want *refWay) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: way = %v, want %v", where, got, want)
	}
	if got != nil && (uint64(*got&tagMask) != want.tag || got.State() != want.state || got.Dirty() != want.dirty) {
		t.Fatalf("%s: way %v/%v/%v, want %#x/%v/%v", where,
			got.Addr(), got.State(), got.Dirty(), want.tag, want.state, want.dirty)
	}
}

func checkLines(t *testing.T, where string, got, want []Line) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, want %d", where, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: line %d = %+v, want %+v", where, i, got[i], want[i])
		}
	}
}

// checkAgainstRef compares the counters and every way with the model.
func checkAgainstRef(t *testing.T, where string, c *Cache, r *refCache) {
	t.Helper()
	if c.Hits() != r.hits || c.Misses() != r.misses {
		t.Fatalf("%s: counters %d/%d, want %d/%d", where, c.Hits(), c.Misses(), r.hits, r.misses)
	}
	for i, w := range c.ways {
		rw := r.ways[i]
		if w&tagMask == emptyWay {
			if rw.valid {
				t.Fatalf("%s: way %d empty, want block %#x", where, i, rw.tag)
			}
			continue
		}
		if !rw.valid {
			t.Fatalf("%s: way %d holds %v, want empty", where, i, w.Addr())
		}
		checkWay(t, fmt.Sprintf("%s: way %d", where, i), &c.ways[i], &r.ways[i])
	}
}
