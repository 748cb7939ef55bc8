// Package kvstore is an in-memory key-value store workload — the "big
// data and in-memory analytics" class the paper's introduction motivates
// NVMM with. The store is an open-addressing hash table living entirely
// in simulated memory; its interesting property for this paper is
// allocation churn: every table resize allocates a fresh region (which
// the kernel shreds page by page), rehashes into it, and frees the old
// one back into the reuse pool.
package kvstore

import (
	"silentshredder/internal/apprt"
)

// slot layout: two words per slot — hashed key (0 = empty) and value.
const slotWords = 2

// Store is an open-addressing (linear probing) hash table in simulated
// memory.
type Store struct {
	rt    *apprt.Runtime
	table apprt.Array // capacity*slotWords
	cap   int
	used  int
}

// New creates a store with the given initial capacity (rounded up to a
// power of two, minimum 64 slots).
func New(rt *apprt.Runtime, capacity int) *Store {
	c := 64
	for c < capacity {
		c *= 2
	}
	return &Store{rt: rt, table: apprt.NewArray(rt, c*slotWords), cap: c}
}

// hash is a 64-bit mix (splitmix64 finalizer); key 0 is reserved.
func hash(key uint64) uint64 {
	x := key + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// Put inserts or updates a key.
func (s *Store) Put(key, value uint64) {
	if (s.used+1)*4 >= s.cap*3 { // load factor 0.75
		s.grow()
	}
	h := hash(key)
	i := int(h) & (s.cap - 1)
	for {
		s.rt.Compute(3) // hash/probe arithmetic
		k := s.table.Get(i * slotWords)
		if k == 0 || k == h {
			if k == 0 {
				s.used++
				s.table.Set(i*slotWords, h)
			}
			s.table.Set(i*slotWords+1, value)
			return
		}
		i = (i + 1) & (s.cap - 1)
	}
}

// Get looks a key up.
func (s *Store) Get(key uint64) (uint64, bool) {
	h := hash(key)
	i := int(h) & (s.cap - 1)
	for {
		s.rt.Compute(3)
		k := s.table.Get(i * slotWords)
		if k == 0 {
			return 0, false
		}
		if k == h {
			return s.table.Get(i*slotWords + 1), true
		}
		i = (i + 1) & (s.cap - 1)
	}
}

// Delete removes a key (tombstone-free: backward-shift deletion).
func (s *Store) Delete(key uint64) bool {
	h := hash(key)
	i := int(h) & (s.cap - 1)
	for {
		s.rt.Compute(3)
		k := s.table.Get(i * slotWords)
		if k == 0 {
			return false
		}
		if k == h {
			break
		}
		i = (i + 1) & (s.cap - 1)
	}
	// Backward-shift: close the probe chain.
	s.table.Set(i*slotWords, 0)
	s.used--
	j := (i + 1) & (s.cap - 1)
	for {
		k := s.table.Get(j * slotWords)
		if k == 0 {
			return true
		}
		home := int(k) & (s.cap - 1)
		if movable(home, i, j) {
			s.table.Set(i*slotWords, k)
			s.table.Set(i*slotWords+1, s.table.Get(j*slotWords+1))
			s.table.Set(j*slotWords, 0)
			i = j
		}
		j = (j + 1) & (s.cap - 1)
		s.rt.Compute(4)
	}
}

// movable reports whether the element at slot j (whose home slot is
// `home`) may be moved into the hole at slot i without breaking its probe
// chain — the classic backward-shift condition on a circular table: the
// home must not lie in the cyclic interval (i, j].
func movable(home, i, j int) bool {
	if i <= j {
		return home <= i || home > j
	}
	return home <= i && home > j
}

// grow doubles the table: allocate fresh (shredded) memory, rehash, free
// the old region into the kernel's reuse pool.
func (s *Store) grow() {
	old := s.table
	oldCap := s.cap
	s.cap *= 2
	s.table = apprt.NewArray(s.rt, s.cap*slotWords)
	s.used = 0
	for i := 0; i < oldCap; i++ {
		k := old.Get(i * slotWords)
		if k == 0 {
			continue
		}
		v := old.Get(i*slotWords + 1)
		s.reinsert(k, v)
	}
	old.Free()
}

// reinsert places an already-hashed key during rehash.
func (s *Store) reinsert(h, value uint64) {
	i := int(h) & (s.cap - 1)
	for {
		s.rt.Compute(3)
		if s.table.Get(i*slotWords) == 0 {
			s.table.Set(i*slotWords, h)
			s.table.Set(i*slotWords+1, value)
			s.used++
			return
		}
		i = (i + 1) & (s.cap - 1)
	}
}

// Free releases the store's memory.
func (s *Store) Free() { s.table.Free() }

// Churn runs a YCSB-flavoured workload: load n keys, then ops operations
// with the given read fraction (the rest split between inserts of new
// keys and deletes of old ones), driving steady allocation churn through
// resizes. Returns the number of successful reads.
func Churn(rt *apprt.Runtime, n, ops int, readFrac float64, seed uint64) uint64 {
	s := New(rt, 64)
	x := seed*2654435761 + 1
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 1; i <= n; i++ {
		s.Put(uint64(i), next())
	}
	var hits uint64
	inserted := uint64(n)
	readCut := uint64(readFrac * (1 << 32))
	for i := 0; i < ops; i++ {
		r := next()
		switch {
		case uint64(uint32(r)) < readCut:
			if _, ok := s.Get(r%inserted + 1); ok {
				hits++
			}
		case r&1 == 0:
			inserted++
			s.Put(inserted, r)
		default:
			s.Delete(r%inserted + 1)
		}
		rt.Compute(8)
	}
	s.Free()
	return hits
}
