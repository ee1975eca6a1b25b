// Package edb implements the extensional database: a fact store with
// lazily built hash indexes per binding pattern.
//
// The paper's complexity statements charge time t per tuple retrieval and
// measure strategies by the number of "potentially relevant facts"
// consulted. The store therefore provides constant-expected-time indexed
// retrieval, and a probe reports what it returned, so the run that made
// it tallies its own lookups and tuples retrieved in a Counters. The
// store itself counts nothing.
//
// Memory layout: binary relations publish their adjacency as CSR
// (compressed sparse row) — one offset array indexed directly by the
// dense symtab.Sym plus one flat neighbor slice — so the hot
// Successors/Predecessors operations are two array loads and a slice,
// with zero per-key hashing or allocation.
//
// Mutation model: the store is live-updatable. Insert appends a slot to
// the flat tuple storage and Remove tombstones one without moving any
// other tuple. Each published CSR keeps a list of the slots written since
// its build, keyed by its key column, and the set of keys they name. A
// probe of a key no write named returns the CSR's own slice; a probe of a
// written key pays for that key's writes only. A write that would pass
// adjTailMax pending writes unpublishes the CSR instead, and the next
// probe rebuilds it from the live slots by counting sort. When tombstones
// accumulate past half the slots the flat storage itself is compacted in
// place.
package edb

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"chainlog/internal/symtab"
)

// Counters is one run's tally of its extensional probes.
type Counters struct {
	// Lookups is the number of index probes (Successors, Predecessors,
	// MatchEach calls).
	Lookups int64
	// Retrieved is the total number of tuples returned by probes.
	Retrieved int64
}

// Store holds all extensional relations of one database instance.
//
// Concurrency: read operations (Relation, Successors, Predecessors,
// MatchEach, Each, Contains) are safe to call from many goroutines at once —
// lazily built indexes are constructed under a per-relation lock. Mutations
// (Insert, Remove, SetStore on the owning DB) require external exclusion of
// all readers; the chainlog.DB write lock provides it.
type Store struct {
	st    *symtab.Table
	rels  map[string]*Relation
	names []string
}

// NewStore returns an empty store over the given symbol table.
func NewStore(st *symtab.Table) *Store {
	return &Store{st: st, rels: make(map[string]*Relation)}
}

// SymTab returns the store's symbol table.
func (s *Store) SymTab() *symtab.Table { return s.st }

// Insert adds a tuple to relation pred, creating the relation on first
// use, and reports whether the tuple was new (inserting a duplicate is a
// no-op). Insert panics if pred is reused with a different arity;
// programs are arity-checked before load.
func (s *Store) Insert(pred string, args ...symtab.Sym) bool {
	return s.Ensure(pred, len(args)).Insert(args)
}

// Ensure returns relation pred, creating it empty, of the given arity,
// if it does not exist yet.
func (s *Store) Ensure(pred string, arity int) *Relation {
	r, ok := s.rels[pred]
	if !ok {
		r = newRelation(pred, arity)
		s.rels[pred] = r
		s.names = append(s.names, pred)
	}
	return r
}

// Remove deletes a tuple from relation pred and reports whether it was
// present. Removing from a relation that does not exist, or removing a
// tuple that was never inserted (or already removed), is a no-op
// returning false. The slot is tombstoned — no other tuple moves, so
// published index offsets stay valid — and the flat storage compacts
// itself once tombstones accumulate.
func (s *Store) Remove(pred string, args ...symtab.Sym) bool {
	r, ok := s.rels[pred]
	if !ok {
		return false
	}
	return r.remove(args)
}

// Relation returns the named relation, or nil if it was never inserted
// into.
func (s *Store) Relation(pred string) *Relation { return s.rels[pred] }

// Relations returns all relation names in insertion order.
func (s *Store) Relations() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// Size returns the total number of live tuples in the store.
func (s *Store) Size() int {
	n := 0
	for _, r := range s.rels {
		n += r.Len()
	}
	return n
}

// Clone returns a deep copy of the store sharing the symbol table. The
// copy is compacted: tombstoned slots are not carried over. Indexes are
// not copied; they rebuild lazily.
func (s *Store) Clone() *Store {
	out := NewStore(s.st)
	for _, name := range s.names {
		r := s.rels[name]
		nr := newRelation(name, r.tab.arity)
		out.rels[name] = nr
		out.names = append(out.names, name)
		r.Each(func(t []symtab.Sym) { nr.Insert(t) })
	}
	return out
}

// Relation is one stored relation: a Table — the tuples in a flat arena,
// a slot being one tuple's position in it, with the dedupe set and one
// index per binding pattern built on first use — plus, for a binary
// relation, the published CSR adjacency. Removal tombstones the slot
// instead of moving tuples, so index chains and the published CSR stay
// valid; a removed tuple leaves every chain, so re-asserting it appends a
// fresh slot.
type Relation struct {
	name string
	tab  Table
	// ver increments on every mutation and compaction (Version).
	ver uint64
	// frozen marks a relation constructed directly in CSR/flat layout
	// (snapshot open, bulk build — see frozen.go) whose flat storage may
	// not exist yet; thawed flips once it is materialized and heap-owned.
	// Ordinary relations are born thawed.
	// aliasedFlat marks flat storage borrowed from a read-only mapping,
	// which a thaw must copy before any in-place write.
	frozen      bool
	aliasedFlat bool
	thawed      atomic.Bool
	// mu guards the thaw and the publishing of the CSRs below; readers
	// go through the atomic pointers without locking, so concurrent probes
	// scale while a racing first build happens exactly once.
	mu sync.Mutex
	// fwd and rev are the CSR adjacency of binary relations, published
	// copy-on-write. A write notes its slot on each (note); a write past
	// adjTailMax notes, or a renumbering of the slots, unpublishes them,
	// and the next probe rebuilds from the live slots.
	fwd atomic.Pointer[csr]
	rev atomic.Pointer[csr]
}

// csr is compressed-sparse-row adjacency: the neighbors of u are
// nbr[off[u]:off[u+1]]. off is indexed directly by the dense Sym value
// and sized to the largest key present at build time; slots is the slot
// count the build covered. writes lists the slots appended or tombstoned
// since the build, in write order, each with its key column's value, and
// keys holds the bit of every key they name.
type csr struct {
	slots  int
	off    []int32
	nbr    []symtab.Sym
	writes []keyedSlot
	keys   []uint64
}

// keyedSlot is one write noted on a CSR: the slot and its key.
type keyedSlot struct {
	key  symtab.Sym
	slot int32
}

// lookup returns the neighbor slice of u, aliasing the CSR arrays.
func (c *csr) lookup(u symtab.Sym) []symtab.Sym {
	i := int(u)
	if i < 0 || i >= len(c.off)-1 {
		return nil
	}
	return c.nbr[c.off[i]:c.off[i+1]]
}

// written reports whether a write since the build named key.
func (c *csr) written(key symtab.Sym) bool {
	w := int(uint32(key) >> 6)
	return w < len(c.keys) && c.keys[w]&(1<<(uint32(key)&63)) != 0
}

func newRelation(name string, arity int) *Relation {
	r := &Relation{name: name, tab: Table{arity: arity}}
	r.thawed.Store(true)
	return r
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.tab.arity }

// Len returns the number of live tuples. Zero-arity relations
// (propositional predicates) hold at most one tuple, the empty tuple.
func (r *Relation) Len() int {
	if r == nil {
		return 0
	}
	return r.tab.live
}

// Insert adds a tuple, as Store.Insert does, and reports whether it was
// new.
func (r *Relation) Insert(args []symtab.Sym) bool {
	if len(args) != r.tab.arity {
		panic(fmt.Sprintf("edb: %s arity %d, got %d args", r.name, r.tab.arity, len(args)))
	}
	r.ensureThawed()
	if !r.tab.Add(args) {
		return false
	}
	r.ver++
	if r.tab.arity == 2 {
		r.noteWrite(r.tab.n - 1)
	}
	return true
}

// remove tombstones the tuple and reports whether it was present. A
// wrong-arity tuple was by definition never inserted, so — unlike
// insert, which panics to catch load-time bugs — it is a false no-op.
func (r *Relation) remove(args []symtab.Sym) bool {
	if len(args) != r.tab.arity {
		return false
	}
	r.ensureThawed()
	slot := r.tab.Find(args)
	if slot < 0 {
		return false
	}
	r.tab.removeSlot(slot)
	r.ver++
	if r.tab.arity == 2 {
		r.noteWrite(slot)
	}
	r.maybeCompact()
	return true
}

// noteWrite notes a write to slot of a binary relation on both published
// CSRs.
func (r *Relation) noteWrite(slot int) {
	row := r.tab.Row(slot)
	r.note(&r.fwd, row[0], slot)
	r.note(&r.rev, row[1], slot)
}

// note adds the write to slot, under key, to the CSR p publishes. A CSR
// whose list is full is unpublished instead, so a direction nobody probes
// never holds more than adjTailMax writes.
func (r *Relation) note(p *atomic.Pointer[csr], key symtab.Sym, slot int) {
	c := p.Load()
	switch {
	case c == nil:
	case slot >= c.slots && r.tab.isDead(slot):
		// The tombstone of a slot appended since the build: its append
		// named the key already, and probes skip dead slots.
	case len(c.writes) == adjTailMax:
		r.unpublish(p)
	default:
		c.writes = append(c.writes, keyedSlot{key, int32(slot)})
		w := int(uint32(key) >> 6)
		if w >= len(c.keys) {
			c.keys = append(c.keys, make([]uint64, w+1-len(c.keys))...)
		}
		c.keys[w] |= 1 << (uint32(key) & 63)
	}
}

// unpublish retires the CSR p publishes; the next probe rebuilds it.
func (r *Relation) unpublish(p *atomic.Pointer[csr]) {
	r.mu.Lock()
	p.Store(nil)
	r.mu.Unlock()
}

// maybeCompact rewrites the flat storage once tombstones dominate it
// (Table.Repack).
func (r *Relation) maybeCompact() {
	if r.tab.Repack(nil) {
		r.renumbered()
	}
}

// Reset empties the relation for reuse, keeping its table's storage and
// indexes (Table.Reset).
func (r *Relation) Reset() {
	r.ensureThawed()
	r.tab.Reset()
	r.renumbered()
}

// renumbered retires the CSR adjacency once the slots have moved: a
// published CSR is addressed in the old slots.
func (r *Relation) renumbered() {
	r.ver++
	r.unpublish(&r.fwd)
	r.unpublish(&r.rev)
}

// Tuple returns the tuple in slot i (aliasing internal storage; callers
// must not mutate it). Slots include tombstoned tuples: code iterating a
// relation that may have seen removals must use Each, which skips them;
// direct slot loops are only exact for insert-only relations. On a
// frozen binary relation the first call materializes the flat storage
// (slot order is CSR order, so published slots stay valid).
func (r *Relation) Tuple(i int) []symtab.Sym {
	r.ensureRows()
	return r.tab.Row(i)
}

// Each calls f for every live tuple, in arrival order; tuples inserted
// during the iteration are not visited. The slice passed to f aliases
// internal storage.
func (r *Relation) Each(f func(tuple []symtab.Sym)) {
	if r == nil {
		return
	}
	if r.frozen && !r.thawed.Load() && r.tab.arity == 2 {
		r.eachFrozenBinary(make([]symtab.Sym, 2), f)
		return
	}
	r.tab.Each(0, nil, 0, r.tab.n, f)
}

// Contains reports whether the tuple is present. The probe allocates
// nothing.
func (r *Relation) Contains(args []symtab.Sym) bool {
	if r == nil || len(args) != r.tab.arity {
		return false
	}
	if r.tab.arity == 2 && r.frozen && !r.thawed.Load() {
		// Frozen binary: binary-search the sorted CSR neighbor list — no
		// dedupe index exists yet and none is needed.
		return r.containsFrozenBinary(args)
	}
	return r.tab.Find(args) >= 0
}

// adjTailMax bounds the writes (appended plus tombstoned slots) a
// published CSR notes before it is unpublished and rebuilt. A probe of a
// written key therefore pays for at most adjTailMax notes, and a rebuild
// happens at most once per adjTailMax writes — interleaved writes and
// probes cost O(m/adjTailMax) amortized per write instead of a full
// rebuild on every first probe after a change.
const adjTailMax = 64

// lookupAdj answers one adjacency probe from the published CSR, building
// it first if there is none. A key no write named since the build answers
// the CSR's own slice, with no copy. A written key answers a fresh slice:
// its CSR neighbors less those whose slot was tombstoned, then its live
// appended slots — the slot order a scan of the live tuples gives.
func (r *Relation) lookupAdj(p *atomic.Pointer[csr], keyCol, valCol int, key symtab.Sym) []symtab.Sym {
	c := p.Load()
	if c == nil {
		c = r.refreshAdj(p, keyCol, valCol)
	}
	if !c.written(key) {
		return c.lookup(key)
	}
	return r.merged(c, valCol, key)
}

// merged answers a probe of a key a write named since c was built: a
// fresh slice of its CSR neighbors less those whose slot was tombstoned,
// then its live appended slots.
func (r *Relation) merged(c *csr, valCol int, key symtab.Sym) []symtab.Sym {
	// Writes exclude readers, so the notes and slots are stable here. A
	// tombstoned CSR neighbor is met before any re-append of its tuple,
	// which the dedupe set forbids while it is live.
	nbrs := c.lookup(key)
	out := append(make([]symtab.Sym, 0, len(nbrs)+1), nbrs...)
	for _, w := range c.writes {
		if w.key != key {
			continue
		}
		s := int(w.slot)
		v := r.tab.Row(s)[valCol]
		switch {
		case s < c.slots:
			i := slices.Index(out, v)
			out = slices.Delete(out, i, i+1)
		case !r.tab.isDead(s):
			out = append(out, v)
		}
	}
	return out
}

// refreshAdj publishes a CSR with no pending writes — the one another
// probe just built, or a counting sort over the live slots — and
// returns it.
func (r *Relation) refreshAdj(p *atomic.Pointer[csr], keyCol, valCol int) *csr {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := p.Load(); c != nil && len(c.writes) == 0 {
		return c
	}
	c := r.buildAdjLocked(keyCol, valCol)
	p.Store(c)
	return c
}

// buildAdjLocked constructs the CSR from the full tuple list by counting
// sort, skipping tombstoned slots. keyCol indexes the CSR, valCol is the
// neighbor column. The caller holds r.mu.
func (r *Relation) buildAdjLocked(keyCol, valCol int) *csr {
	maxKey := -1
	for i := 0; i < r.tab.n; i++ {
		if r.tab.isDead(i) {
			continue
		}
		if k := int(r.Tuple(i)[keyCol]); k > maxKey {
			maxKey = k
		}
	}
	c := &csr{
		slots: r.tab.n,
		off:   make([]int32, maxKey+2),
		nbr:   make([]symtab.Sym, r.tab.live),
	}
	// Counting sort: tally per key, prefix-sum, then scatter.
	for i := 0; i < r.tab.n; i++ {
		if !r.tab.isDead(i) {
			c.off[int(r.Tuple(i)[keyCol])+1]++
		}
	}
	for i := 1; i < len(c.off); i++ {
		c.off[i] += c.off[i-1]
	}
	fill := make([]int32, maxKey+1)
	for i := 0; i < r.tab.n; i++ {
		if r.tab.isDead(i) {
			continue
		}
		t := r.Tuple(i)
		k := int(t[keyCol])
		c.nbr[c.off[k]+fill[k]] = t[valCol]
		fill[k]++
	}
	return c
}

// Successors returns all v with r(u, v), in slot order. Binary relations
// only. Unless a write named u since the CSR was built, the returned
// slice aliases the CSR adjacency and the probe allocates nothing.
func (r *Relation) Successors(u symtab.Sym) []symtab.Sym {
	if r == nil {
		return nil
	}
	if r.tab.arity != 2 {
		panic("edb: Successors on non-binary relation " + r.name)
	}
	return r.lookupAdj(&r.fwd, 0, 1, u)
}

// Predecessors returns all u with r(u, v). Binary relations only.
func (r *Relation) Predecessors(v symtab.Sym) []symtab.Sym {
	if r == nil {
		return nil
	}
	if r.tab.arity != 2 {
		panic("edb: Predecessors on non-binary relation " + r.name)
	}
	return r.lookupAdj(&r.rev, 1, 0, v)
}

// Domain returns the sorted distinct values of column col across live
// tuples.
func (r *Relation) Domain(col int) []symtab.Sym {
	if r == nil {
		return nil
	}
	out := make([]symtab.Sym, 0, r.Len())
	r.Each(func(t []symtab.Sym) { out = append(out, t[col]) })
	slices.Sort(out)
	return slices.Compact(out)
}

// MatchEach calls f, in arrival order, with every live tuple whose
// columns selected by mask equal the corresponding entries of bound (one
// entry per set bit, in column order), and returns how many there were —
// what the probe retrieved, for the caller's tally.
// The tuple aliases internal storage or, on a frozen binary relation, is
// scratch: two symbols of the caller's that MatchEach writes each tuple
// into, so a probe allocates nothing (a nil scratch is allocated). Tuples
// inserted during the iteration are not visited.
func (r *Relation) MatchEach(mask uint32, bound, scratch []symtab.Sym, f func(tuple []symtab.Sym)) int {
	if r == nil {
		return 0
	}
	if r.tab.arity == 2 && r.frozen && !r.thawed.Load() {
		// Frozen binary: no bound column is a walk of the forward CSR, a
		// single one a CSR lookup and both a Contains — serving them here
		// keeps probes on a mapped snapshot from paying the O(n) thaw +
		// index build.
		if len(scratch) < 2 {
			scratch = make([]symtab.Sym, 2)
		}
		tu := scratch[:2]
		switch mask {
		case 0:
			r.eachFrozenBinary(tu, f)
			return r.tab.live
		case 1 << 0:
			nbrs := r.fwd.Load().lookup(bound[0])
			for _, v := range nbrs {
				tu[0], tu[1] = bound[0], v
				f(tu)
			}
			return len(nbrs)
		case 1 << 1:
			nbrs := r.rev.Load().lookup(bound[0])
			for _, u := range nbrs {
				tu[0], tu[1] = u, bound[0]
				f(tu)
			}
			return len(nbrs)
		case 1<<0 | 1<<1:
			if !r.containsFrozenBinary(bound) {
				return 0
			}
			tu[0], tu[1] = bound[0], bound[1]
			f(tu)
			return 1
		}
	}
	if mask == 0 {
		r.Each(f)
		return r.tab.live
	}
	return r.MatchWindow(mask, bound, 0, r.tab.n, f)
}

// MatchWindow is MatchEach cut to the slots in [lo, hi): on a relation
// nothing is removed from, the matching tuples among those that arrived
// (lo+1)th to hi-th. A hi beyond the last slot means the last slot.
func (r *Relation) MatchWindow(mask uint32, bound []symtab.Sym, lo, hi int, f func(tuple []symtab.Sym)) int {
	if r == nil {
		return 0
	}
	r.ensureRows()
	return r.tab.Each(mask, bound, lo, min(hi, r.tab.n), f)
}
