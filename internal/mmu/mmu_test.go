package mmu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"silentshredder/internal/addr"
)

func TestAddressSpaceMapping(t *testing.T) {
	as := NewAddressSpace(1)
	if _, ok := as.Lookup(5); ok {
		t.Fatal("empty space must not resolve")
	}
	as.Map(5, PTE{PPN: 42, Writable: true})
	pte, ok := as.Lookup(5)
	if !ok || pte.PPN != 42 || !pte.Present || !pte.Writable {
		t.Fatalf("Lookup = %+v %v", pte, ok)
	}
	old, ok := as.Unmap(5)
	if !ok || old.PPN != 42 {
		t.Fatalf("Unmap = %+v %v", old, ok)
	}
	if _, ok := as.Lookup(5); ok {
		t.Fatal("unmapped page still resolves")
	}
}

func TestKeyRangeRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"ASID wider than the ASID field", func() { NewAddressSpace(1 << asidBits) }},
		{"VPN wider than the VPN field", func() { NewAddressSpace(1).Map(1<<vpnBits, PTE{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			tc.f()
		})
	}
}

// The widest key that fits must stay a real tag: an empty TLB misses it,
// and it hits once filled.
func TestWidestKeyIsATag(t *testing.T) {
	const asid, vpn = 1<<asidBits - 1, 1<<vpnBits - 1
	NewAddressSpace(asid).Map(vpn, PTE{})
	tlb := NewTLB()
	if _, hit := tlb.Access(asid, vpn); hit {
		t.Fatal("empty TLB hits the widest key")
	}
	tlb.Fill(asid, vpn)
	if _, hit := tlb.Access(asid, vpn); !hit {
		t.Fatal("widest key misses after Fill")
	}
}

func TestTLBMissFillHit(t *testing.T) {
	tlb := NewTLB()
	lat, hit := tlb.Access(1, 100)
	if hit || lat != 101 {
		t.Fatalf("cold access: hit=%v lat=%d", hit, lat)
	}
	tlb.Fill(1, 100)
	lat, hit = tlb.Access(1, 100)
	if !hit || lat != 1 {
		t.Fatalf("warm access: hit=%v lat=%d", hit, lat)
	}
	if tlb.tags.Hits() != 1 || tlb.tags.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d", tlb.tags.Hits(), tlb.tags.Misses())
	}
	if v, _ := tlb.StatsSet("dtlb").Get("miss_rate"); v != 0.5 {
		t.Fatalf("miss_rate = %v", v)
	}
}

func TestTLBASIDIsolation(t *testing.T) {
	tlb := NewTLB()
	tlb.Fill(1, 100)
	if _, hit := tlb.Access(2, 100); hit {
		t.Fatal("translation must be ASID-scoped")
	}
}

func TestTLBInvalidate(t *testing.T) {
	tlb := NewTLB()
	tlb.Fill(1, 100)
	tlb.Invalidate(1, 100)
	if _, hit := tlb.Access(1, 100); hit {
		t.Fatal("invalidated entry still hits")
	}
}

func TestTLBFlushASID(t *testing.T) {
	tlb := NewTLB()
	tlb.Fill(1, 100)
	tlb.Fill(1, 200)
	tlb.Fill(2, 100)
	tlb.FlushASID(1)
	if _, hit := tlb.Access(1, 100); hit {
		t.Fatal("asid 1 entry survived flush")
	}
	if _, hit := tlb.Access(2, 100); !hit {
		t.Fatal("asid 2 entry must survive")
	}
}

func TestTLBLRUEviction(t *testing.T) {
	// 64 entries, 4-way => 16 sets. VPNs 16 apart share a set.
	tlb := NewTLB()
	for i := 0; i < 4; i++ {
		tlb.Fill(1, addr.VPageNum(i*16)) // all in set 0
	}
	tlb.Access(1, 0) // refresh vpn 0
	tlb.Fill(1, 64)  // set 0 full: evicts LRU (vpn 16)
	if _, hit := tlb.Access(1, 0); !hit {
		t.Fatal("recently used entry evicted")
	}
	if _, hit := tlb.Access(1, 16); hit {
		t.Fatal("LRU entry not evicted")
	}
}

// Property: after Fill, Access hits until Invalidate; stats are coherent.
func TestTLBFillThenHitProperty(t *testing.T) {
	f := func(asid uint8, vpns []uint16) bool {
		tlb := NewTLB()
		for _, v := range vpns {
			tlb.Fill(int(asid), addr.VPageNum(v))
			if _, hit := tlb.Access(int(asid), addr.VPageNum(v)); !hit {
				return false
			}
		}
		return tlb.tags.Hits() == uint64(len(vpns))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStatsSet(t *testing.T) {
	tlb := NewTLB()
	tlb.Access(0, 0)
	s := tlb.StatsSet("dtlb")
	if v, ok := s.Get("misses"); !ok || v != 1 {
		t.Fatalf("misses = %v %v", v, ok)
	}
}

// refTLB is the TLB's rule before it moved onto the cache tag store:
// arrays of entries, and a victim that is the first invalid way or else
// the way with the oldest stamp of a global clock.
type refTLB struct {
	sets         [tlbEntries / tlbAssoc][tlbAssoc]refEntry
	clock        uint64
	hits, misses uint64
}

type refEntry struct {
	asid  int
	vpn   addr.VPageNum
	valid bool
	lru   uint64
}

func (r *refTLB) set(vpn addr.VPageNum) *[tlbAssoc]refEntry {
	return &r.sets[uint64(vpn)%uint64(len(r.sets))]
}

func (r *refTLB) find(asid int, vpn addr.VPageNum) *refEntry {
	set := r.set(vpn)
	for i := range set {
		if e := &set[i]; e.valid && e.asid == asid && e.vpn == vpn {
			return e
		}
	}
	return nil
}

func (r *refTLB) access(asid int, vpn addr.VPageNum) bool {
	e := r.find(asid, vpn)
	if e == nil {
		r.misses++
		return false
	}
	r.hits++
	r.clock++
	e.lru = r.clock
	return true
}

func (r *refTLB) fill(asid int, vpn addr.VPageNum) {
	set := r.set(vpn)
	vi := 0
	for i := range set {
		if !set[i].valid {
			vi = i
			break
		}
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	r.clock++
	set[vi] = refEntry{asid: asid, vpn: vpn, valid: true, lru: r.clock}
}

func (r *refTLB) flushASID(asid int) {
	for s := range r.sets {
		for i := range r.sets[s] {
			if r.sets[s][i].asid == asid {
				r.sets[s][i].valid = false
			}
		}
	}
}

// TestTLBMatchesReference drives the TLB and refTLB with one seeded
// stream over three ASIDs and four VPNs in each of two sets, so every
// set sees twelve keys for its four ways. Fill runs only on a key the
// model does not hold, as the kernel fills only after a miss or an
// Invalidate.
func TestTLBMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tlb, ref := NewTLB(), &refTLB{}
	for step := 0; step < 50000; step++ {
		asid := rng.Intn(3)
		vpn := addr.VPageNum(rng.Intn(2)*5 + rng.Intn(4)*16)
		switch op := rng.Intn(16); {
		case op < 8:
			_, hit := tlb.Access(asid, vpn)
			if want := ref.access(asid, vpn); hit != want {
				t.Fatalf("step %d: Access(%d, %v) hit = %v, want %v", step, asid, vpn, hit, want)
			}
		case op < 13:
			if ref.find(asid, vpn) == nil {
				tlb.Fill(asid, vpn)
				ref.fill(asid, vpn)
			}
		case op < 15:
			tlb.Invalidate(asid, vpn)
			if e := ref.find(asid, vpn); e != nil {
				e.valid = false
			}
		default:
			tlb.FlushASID(asid)
			ref.flushASID(asid)
		}
		if tlb.tags.Hits() != ref.hits || tlb.tags.Misses() != ref.misses {
			t.Fatalf("step %d: hits/misses = %d/%d, want %d/%d", step,
				tlb.tags.Hits(), tlb.tags.Misses(), ref.hits, ref.misses)
		}
	}
	if ref.hits == 0 || ref.misses == 0 {
		t.Fatalf("stream made %d hits and %d misses; want both", ref.hits, ref.misses)
	}
}
