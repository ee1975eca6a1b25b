package edb

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"chainlog/internal/symtab"
)

// Table is the tuple table under every bottom-up join: a Relation's
// storage and n-ary indexes — so the derived relations of a fixpoint —
// and the input and answer tables of a QSQ net. Rows live in one flat
// arena with a stride of arity; a slot is a row's position in arrival
// order. The dedupe set is one open-addressing array over the live rows
// (rowSet), so an Add is one probe of it plus a link into each built
// index. Per bound mask there is a chained hash index — hash of the
// masked columns to a bucket, one link pair per slot, equality by
// comparing the columns in the arena — so no key is ever materialized
// and an Add or a probe allocates nothing. Every chain is in ascending
// slot order and linked both ways, which is what lets a probe be cut to
// a slot window [lo, hi) at the cost of the rows from lo on: the delta
// of a semi-naive round is the rows that arrived since the last one, at
// the end of their chains.
//
// Adding rows needs exclusion of every other use; probes may run
// concurrently with each other (an index for a new mask, and the dedupe
// set, is built once, under a lock, and published copy-on-write). A
// reader may Add to the table it is iterating: the probe stops at its
// hi, so it never sees them.
type Table struct {
	arity int
	n     int // slots: rows ever appended, live or dead
	live  int
	flat  []symtab.Sym
	// dead is the tombstone bitset over slots, nil until a first removal; a
	// dead slot is in no chain.
	dead    []uint64
	mu      sync.Mutex
	indexes atomic.Pointer[[]*index]
	// set is the dedupe set, nil until a first Add or Find builds it.
	set atomic.Pointer[rowSet]
}

// rowSet is a table's dedupe set, open addressing with linear probing
// over parallel arrays: per entry a row's key (Table.setKey) and its
// slot. A row of at most two columns is its own key, packed into 64 bits
// — a binary fact is found or placed in one probe of the keys — and a
// wider row's key is its hash, which a probe confirms against the arena.
// Key 0 marks an empty entry. An entry's home is a hash of its key, so
// the set grows and deletes (by backward shift) without reading a row.
// It is at most half full.
type rowSet struct {
	keys  []uint64
	slots []int32
	shift uint // an entry's home is mix(key) >> shift
	n     int  // entries held
}

// minSet is a dedupe set's initial entry count.
const minSet = 8

// index is one bound mask's chained hash index.
type index struct {
	mask    uint32
	cols    []int // the mask's columns, ascending
	shift   uint  // a hash's bucket is its top 64-shift bits
	buckets []bucket
	links   []link // per slot
}

// link is a slot's neighbours in its chain, -1 at either end.
type link struct{ prev, next int32 }

// bucket is one chain: its first and last slot, -1 when empty. Appending
// at the tail keeps the chain in arrival order.
type bucket struct{ head, tail int32 }

// minBuckets is an index's initial bucket count; it doubles whenever the
// slots outnumber the buckets.
const minBuckets = 8

// NewTable returns an empty table of the given arity.
func NewTable(arity int) *Table { return &Table{arity: arity} }

// Rows returns the slot count: the exclusive upper bound of a window.
func (t *Table) Rows() int { return t.n }

// Len returns the number of live rows.
func (t *Table) Len() int { return t.live }

// Row returns the row in slot i, aliasing the arena: it is valid until
// the next Add.
func (t *Table) Row(i int) []symtab.Sym { return t.flat[i*t.arity : (i+1)*t.arity] }

func (t *Table) isDead(slot int) bool {
	w := slot >> 6
	return w < len(t.dead) && t.dead[w]&(1<<(uint(slot)&63)) != 0
}

func (t *Table) markDead(slot int) {
	w := slot >> 6
	for w >= len(t.dead) {
		t.dead = append(t.dead, 0)
	}
	t.dead[w] |= 1 << (uint(slot) & 63)
}

// hashKey hashes a bound vector; a row's hash under an index is the
// hashKey of its masked columns.
func hashKey(key []symtab.Sym) uint64 {
	var h uint64
	for _, v := range key {
		h = (h ^ uint64(uint32(v))) * 0x9E3779B97F4A7C15
	}
	return h
}

func (ix *index) hashRow(row []symtab.Sym) uint64 {
	var h uint64
	for _, c := range ix.cols {
		h = (h ^ uint64(uint32(row[c]))) * 0x9E3779B97F4A7C15
	}
	return h
}

func (ix *index) matches(row, key []symtab.Sym) bool {
	for k, c := range ix.cols {
		if row[c] != key[k] {
			return false
		}
	}
	return true
}

// link appends slot, whose hash is h, to its chain.
func (ix *index) link(slot int32, h uint64) {
	b := &ix.buckets[h>>ix.shift]
	ix.links[slot] = link{b.tail, -1}
	if b.head < 0 {
		b.head = slot
	} else {
		ix.links[b.tail].next = slot
	}
	b.tail = slot
}

// add links slot, the table's new last, whose hash is h, at its chain's
// tail.
func (ix *index) add(slot int32, h uint64) {
	b := &ix.buckets[h>>ix.shift]
	ix.links = append(ix.links, link{b.tail, -1})
	if b.head < 0 {
		b.head = slot
	} else {
		ix.links[b.tail].next = slot
	}
	b.tail = slot
}

// rebuild rehashes every live slot of t, in slot order, into at least
// minBuckets and at least t.n buckets.
func (ix *index) rebuild(t *Table) {
	nb := max(minBuckets, 1<<bits.Len(uint(max(t.n, 1)-1)))
	ix.shift = uint(64 - bits.TrailingZeros(uint(nb)))
	ix.buckets = make([]bucket, nb)
	for i := range ix.buckets {
		ix.buckets[i] = bucket{-1, -1}
	}
	ix.links = slices.Grow(ix.links[:0], t.n)[:t.n]
	for s := 0; s < t.n; s++ {
		if !t.isDead(s) {
			ix.link(int32(s), ix.hashRow(t.Row(s)))
		}
	}
}

// unlink takes a live slot out of its chain.
func (ix *index) unlink(t *Table, slot int32) {
	b := &ix.buckets[ix.hashRow(t.Row(int(slot)))>>ix.shift]
	l := ix.links[slot]
	if l.prev < 0 {
		b.head = l.next
	} else {
		ix.links[l.prev].next = l.next
	}
	if l.next < 0 {
		b.tail = l.prev
	} else {
		ix.links[l.next].prev = l.prev
	}
}

func (t *Table) built() []*index {
	if p := t.indexes.Load(); p != nil {
		return *p
	}
	return nil
}

// index returns the index over mask's columns, building it on first use.
func (t *Table) index(mask uint32) *index {
	for _, ix := range t.built() {
		if ix.mask == mask {
			return ix
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.built()
	for _, ix := range cur {
		if ix.mask == mask {
			return ix
		}
	}
	ix := &index{mask: mask}
	for c := 0; c < t.arity; c++ {
		if mask&(1<<uint(c)) != 0 {
			ix.cols = append(ix.cols, c)
		}
	}
	ix.rebuild(t)
	// Copy-on-write: a concurrent probe never sees a list under mutation.
	next := append(cur[:len(cur):len(cur)], ix)
	t.indexes.Store(&next)
	return ix
}

// newRowSet returns an empty set of at least minSet entries with room
// for n rows.
func newRowSet(n int) *rowSet {
	size := max(minSet, 1<<bits.Len(uint(2*n)))
	return &rowSet{keys: make([]uint64, size), slots: make([]int32, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

// setKey returns row's key in the dedupe set, never 0: the complement of
// its columns packed into 64 bits when it has at most two (symbols are
// never negative, so no row packs to all ones), and its hash otherwise.
func (t *Table) setKey(row []symtab.Sym) uint64 {
	switch t.arity {
	case 0:
		return ^uint64(0)
	case 1:
		return ^uint64(uint32(row[0]))
	case 2:
		return ^(uint64(uint32(row[0]))<<32 | uint64(uint32(row[1])))
	}
	return hashKey(row) | 1
}

// home returns the position of key's first probe. The key's halves are
// folded together before the multiply: a product alone is linear in the
// two columns of a packed pair, and pairs in arithmetic progression
// (x+i, y+7i) then land in a few long runs.
func (rs *rowSet) home(key uint64) uint64 { return (key ^ key>>32) * 0x9E3779B97F4A7C15 >> rs.shift }

// probe looks row, whose key is k, up: it returns the entry position
// holding it and its slot, or the empty position where it would go and
// -1.
func (rs *rowSet) probe(t *Table, row []symtab.Sym, k uint64) (uint64, int) {
	m, exact := uint64(len(rs.keys)-1), t.arity <= 2
	for i := rs.home(k); ; i = (i + 1) & m {
		switch e := rs.keys[i]; {
		case e == 0:
			return i, -1
		case e == k && (exact || slices.Equal(t.Row(int(rs.slots[i])), row)):
			return i, int(rs.slots[i])
		}
	}
}

// put stores an entry at the first empty position from its home on.
func (rs *rowSet) put(key uint64, slot int32) {
	m := uint64(len(rs.keys) - 1)
	i := rs.home(key)
	for rs.keys[i] != 0 {
		i = (i + 1) & m
	}
	rs.keys[i], rs.slots[i] = key, slot
}

// grow doubles the set, placing every entry again: what an Add does
// once the set is half full.
func (rs *rowSet) grow() {
	keys, slots := rs.keys, rs.slots
	rs.keys, rs.slots, rs.shift = make([]uint64, 2*len(keys)), make([]int32, 2*len(keys)), rs.shift-1
	for j, e := range keys {
		if e != 0 {
			rs.put(e, slots[j])
		}
	}
}

// delete empties position i, shifting back the entries after it that
// may not sit on the far side of a hole from their home.
func (rs *rowSet) delete(i uint64) {
	m := uint64(len(rs.keys) - 1)
	for j := (i + 1) & m; rs.keys[j] != 0; j = (j + 1) & m {
		if e := rs.keys[j]; (j-rs.home(e))&m >= (j-i)&m {
			rs.keys[i], rs.slots[i], i = e, rs.slots[j], j
		}
	}
	rs.keys[i] = 0
	rs.n--
}

// rows returns the dedupe set, building it over the live rows on first
// use.
func (t *Table) rows() *rowSet {
	if rs := t.set.Load(); rs != nil {
		return rs
	}
	return t.buildRows()
}

func (t *Table) buildRows() *rowSet {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rs := t.set.Load(); rs != nil {
		return rs
	}
	rs := newRowSet(t.live)
	for s := 0; s < t.n; s++ {
		if !t.isDead(s) {
			rs.put(t.setKey(t.Row(s)), int32(s))
			rs.n++
		}
	}
	t.set.Store(rs)
	return rs
}

// Find returns the slot of the live row equal to row, or -1.
func (t *Table) Find(row []symtab.Sym) int {
	_, slot := t.rows().probe(t, row, t.setKey(row))
	return slot
}

// Add appends row unless an equal live row is present, and reports
// whether it did: one probe of the dedupe set, then a link into every
// built index.
func (t *Table) Add(row []symtab.Sym) bool {
	rs, k := t.rows(), t.setKey(row)
	var i uint64
	if t.arity <= 2 {
		// The row is its key: the probe compares keys alone.
		m := uint64(len(rs.keys) - 1)
		for i = rs.home(k); rs.keys[i] != 0; i = (i + 1) & m {
			if rs.keys[i] == k {
				return false
			}
		}
	} else if i, _ = rs.probe(t, row, k); rs.keys[i] != 0 {
		return false
	}
	slot := t.n
	if t.arity == 2 {
		t.flat = append(t.flat, row[0], row[1])
	} else {
		t.flat = append(t.flat, row...)
	}
	t.n++
	t.live++
	rs.keys[i], rs.slots[i] = k, int32(slot)
	if rs.n++; 2*rs.n > len(rs.keys) {
		rs.grow()
	}
	for _, ix := range t.built() {
		if t.n > len(ix.buckets) {
			ix.rebuild(t)
		} else {
			ix.add(int32(slot), ix.hashRow(row))
		}
	}
	return true
}

// Reset empties the table for reuse. The arena keeps its capacity, the
// dedupe set its entries and every built index its buckets, so refilling
// the table up to its old size allocates nothing and rebuilds no index.
func (t *Table) Reset() {
	t.n, t.live = 0, 0
	t.flat, t.dead = t.flat[:0], t.dead[:0]
	if rs := t.set.Load(); rs != nil {
		clear(rs.keys)
		rs.n = 0
	}
	for _, ix := range t.built() {
		for i := range ix.buckets {
			ix.buckets[i] = bucket{-1, -1}
		}
		ix.links = ix.links[:0]
	}
}

// Remove tombstones the row equal to row and reports whether there was
// one. No other row moves, so slots stay valid, and the dead row stays
// readable by its slot until the table is repacked.
func (t *Table) Remove(row []symtab.Sym) bool {
	return t.remove(row) >= 0
}

// remove tombstones the live row equal to row and returns its slot, or
// -1 when there is none.
func (t *Table) remove(row []symtab.Sym) int {
	rs := t.rows()
	i, slot := rs.probe(t, row, t.setKey(row))
	if slot < 0 {
		return -1
	}
	rs.delete(i)
	for _, ix := range t.built() {
		ix.unlink(t, int32(slot))
	}
	t.markDead(slot)
	t.live--
	return slot
}

// repackMinDead is the least number of tombstones worth a repack.
const repackMinDead = 64

// Repack squeezes the tombstones out once they dominate the table — more
// than repackMinDead of them and at least half the slots — and reports
// whether it did. That keeps sustained add/remove churn from growing the
// slot space without bound while a repack stays rare. moved, when not
// nil, is told every live slot's old and new position, in ascending
// order, so that arrays parallel to the slots can be repacked in step.
func (t *Table) Repack(moved func(from, to int)) bool {
	dead := t.n - t.live
	if dead <= repackMinDead || dead*2 < t.n {
		return false
	}
	t.compact(moved)
	return true
}

// compact squeezes the tombstoned slots out of the arena. Slots are
// renumbered, so every index and the dedupe set are dropped; they
// rebuild on next use.
func (t *Table) compact(moved func(from, to int)) {
	w := 0
	for i := 0; i < t.n; i++ {
		if t.isDead(i) {
			continue
		}
		if w != i {
			copy(t.Row(w), t.Row(i))
		}
		if moved != nil {
			moved(i, w)
		}
		w++
	}
	t.flat = t.flat[:w*t.arity]
	t.n = w
	t.dead = nil
	t.mu.Lock()
	t.indexes.Store(nil)
	t.set.Store(nil)
	t.mu.Unlock()
}
