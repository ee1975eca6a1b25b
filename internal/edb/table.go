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
// order. Per bound mask there is a chained hash index — hash of the
// masked columns to a bucket, one link pair per slot, equality by
// comparing the columns in the arena — so no key is ever materialized
// and an Add or a probe allocates nothing. The index over every column
// is the dedupe set. Every chain is in ascending slot order and linked
// both ways, which is what lets a probe be cut to a slot window [lo, hi)
// at the cost of the rows from lo on: the delta of a semi-naive round is
// the rows that arrived since the last one, at the end of their chains.
//
// Adding rows needs exclusion of every other use; probes may run
// concurrently with each other (an index for a new mask is built once,
// under a lock, and published copy-on-write). A callback may Add to the
// table it is iterating: the probe stops at its hi, so it never sees
// them.
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
}

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

// Find returns the slot of the live row equal to row, or -1.
func (t *Table) Find(row []symtab.Sym) int {
	return t.find(t.index(1<<uint(t.arity)-1), row, hashKey(row))
}

// find is Find through the dedupe index ix, given row's hash h.
func (t *Table) find(ix *index, row []symtab.Sym, h uint64) int {
	for s := ix.buckets[h>>ix.shift].head; s >= 0; s = ix.links[s].next {
		if slices.Equal(t.Row(int(s)), row) {
			return int(s)
		}
	}
	return -1
}

// Add appends row unless an equal live row is present, and reports
// whether it did. The row is hashed once for the dedupe probe and its
// link in the dedupe index.
func (t *Table) Add(row []symtab.Sym) bool {
	dedupe, h := t.index(1<<uint(t.arity)-1), hashKey(row)
	if t.find(dedupe, row, h) >= 0 {
		return false
	}
	slot := int32(t.n)
	t.flat = append(t.flat, row...)
	t.n++
	t.live++
	for _, ix := range t.built() {
		switch {
		case t.n > len(ix.buckets):
			ix.rebuild(t)
		case ix == dedupe:
			ix.links = append(ix.links, link{})
			ix.link(slot, h)
		default:
			ix.links = append(ix.links, link{})
			ix.link(slot, ix.hashRow(row))
		}
	}
	return true
}

// Reset empties the table for reuse. The arena keeps its capacity and
// every built index its buckets, so refilling the table up to its old
// size allocates nothing and rebuilds no index.
func (t *Table) Reset() {
	t.n, t.live = 0, 0
	t.flat, t.dead = t.flat[:0], t.dead[:0]
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
	slot := t.Find(row)
	if slot < 0 {
		return false
	}
	t.removeSlot(slot)
	return true
}

// removeSlot tombstones the live row in slot.
func (t *Table) removeSlot(slot int) {
	for _, ix := range t.built() {
		ix.unlink(t, int32(slot))
	}
	t.markDead(slot)
	t.live--
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
// renumbered, so every index is dropped; they rebuild on next use.
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
	t.mu.Unlock()
}

// Each calls f, in arrival order, with every live row in the slot window
// [lo, hi) whose mask columns equal bound (one value per set bit, in
// column order; mask 0 is every row), and returns how many there were.
// The row passed to f aliases the arena.
func (t *Table) Each(mask uint32, bound []symtab.Sym, lo, hi int, f func(row []symtab.Sym)) int {
	return t.each(mask, bound, lo, hi, f, nil)
}

// EachSlot is Each for a caller keeping state of its own per slot: f is
// also told the row's slot.
func (t *Table) EachSlot(mask uint32, bound []symtab.Sym, lo, hi int, f func(slot int, row []symtab.Sym)) int {
	return t.each(mask, bound, lo, hi, nil, f)
}

// each is Each when g is nil and EachSlot otherwise.
func (t *Table) each(mask uint32, bound []symtab.Sym, lo, hi int, f func(row []symtab.Sym), g func(slot int, row []symtab.Sym)) int {
	n := 0
	if mask == 0 {
		for i := lo; i < hi; i++ {
			if t.isDead(i) {
				continue
			}
			n++
			if g != nil {
				g(i, t.Row(i))
			} else {
				f(t.Row(i))
			}
		}
		return n
	}
	ix := t.index(mask)
	b := ix.buckets[hashKey(bound)>>ix.shift]
	s := b.head
	if lo > 0 {
		// A window is usually the end of the chain: find its first slot
		// from the tail.
		s = -1
		for p := b.tail; p >= 0 && int(p) >= lo; p = ix.links[p].prev {
			s = p
		}
	}
	for ; s >= 0 && int(s) < hi; s = ix.links[s].next {
		row := t.Row(int(s))
		if !ix.matches(row, bound) {
			continue
		}
		n++
		if g != nil {
			g(int(s), row)
		} else {
			f(row)
		}
	}
	return n
}
