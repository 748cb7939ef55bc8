package addr

import "sort"

// densePages bounds the slice-indexed part of a PageTable: 16GB of 4KB
// frames. Frame allocators hand out small page numbers from zero, so
// every data page falls below it. The reserved regions far above the
// data (the journal and spare lines at 2^45, the counter region at
// 2^46) land in the map.
const densePages = 1 << 22

// minDense is the length of a PageTable's slice when it first grows.
const minDense = 64

// PageTable maps page numbers to values of type T. The zero T means
// absent: nil in a table of pointers, 0 in a table of masks. Pages
// below 2^22 index a slice grown by doubling to cover the highest such
// page set so far; higher pages live in a map of boxed values, so a
// slot has a stable address on both sides. ForEach visits present pages
// in ascending order. The zero value is an empty table.
//
// Get and Ptr index the slice or the map and call nothing else, so they
// inline into callers' hot paths. Only Set grows the table.
type PageTable[T comparable] struct {
	dense  []T
	sparse map[PageNum]*T
}

// Get returns page p's value, the zero T when p is absent.
func (t *PageTable[T]) Get(p PageNum) (v T) {
	if uint64(p) < uint64(len(t.dense)) {
		return t.dense[p]
	}
	if b := t.sparse[p]; b != nil {
		v = *b
	}
	return v
}

// Ptr returns page p's slot, or nil when the table has no slot for p.
// A slot may hold the zero T. The pointer stays valid until the next
// Set or Reset.
func (t *PageTable[T]) Ptr(p PageNum) *T {
	if uint64(p) < uint64(len(t.dense)) {
		return &t.dense[p]
	}
	return t.sparse[p]
}

// Set stores v as page p's value, growing the table when it has no
// slot for p. Storing the zero T on a page without a slot does nothing.
func (t *PageTable[T]) Set(p PageNum, v T) {
	if slot := t.Ptr(p); slot != nil {
		*slot = v
		return
	}
	var zero T
	if v == zero {
		return
	}
	if p < densePages {
		n := max(len(t.dense), minDense)
		for uint64(n) <= uint64(p) {
			n *= 2
		}
		t.dense = append(t.dense, make([]T, n-len(t.dense))...)
		t.dense[p] = v
		return
	}
	if t.sparse == nil {
		t.sparse = make(map[PageNum]*T)
	}
	b := new(T) // not &v, which would move v to the heap on every call
	*b = v
	t.sparse[p] = b
}

// ForEach calls fn for every present page in ascending page order. fn
// must not Set or Reset the table it walks.
func (t *PageTable[T]) ForEach(fn func(p PageNum, v T)) {
	var zero T
	for i, v := range t.dense {
		if v != zero {
			fn(PageNum(i), v)
		}
	}
	if len(t.sparse) == 0 {
		return
	}
	ps := make([]PageNum, 0, len(t.sparse))
	for p, v := range t.sparse {
		if *v != zero {
			ps = append(ps, p)
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	for _, p := range ps {
		fn(p, *t.sparse[p])
	}
}

// Reset empties the table, keeping its storage for reuse.
func (t *PageTable[T]) Reset() {
	clear(t.dense)
	clear(t.sparse)
}
