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
// Mutation model: the store is live-updatable. Insert appends to the
// flat tuple storage (an append-only overlay over the published CSR);
// Remove tombstones a slot without moving any other tuple. Probes absorb
// both kinds of pending change — a bounded tail scan for fresh inserts,
// a liveness filter for fresh retractions — and once the pending-change
// window passes adjTailMax the CSR is rebuilt from the live slots by
// counting sort. When tombstones accumulate past half the slots the flat
// storage itself is compacted in place.
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
	// retracts counts removals monotonically and gen counts flat-storage
	// compactions — together with the slot count they let a published CSR
	// detect exactly which overlay work a probe owes.
	retracts uint32
	gen      uint32
	// ver increments on every mutation and compaction: a CSR stamped
	// with the current ver is exactly up to date, making the warm-probe
	// staleness test one comparison.
	ver uint64
	// retractLog records recently removed binary tuples so overlay
	// probes filter only the keys a retract actually touched; entry i is
	// retract ordinal logBase+i. The log is trimmed
	// (logBase advances) past retractLogMax — a CSR older than the log
	// falls back to filtering every key through the liveness map.
	retractLog [][2]symtab.Sym
	logBase    uint32
	// frozen marks a relation constructed directly in CSR/flat layout
	// (snapshot open, bulk build — see frozen.go) whose flat storage may
	// not exist yet; thawed flips once it is materialized and heap-owned.
	// Ordinary relations are born thawed.
	// aliasedFlat marks flat storage borrowed from a read-only mapping,
	// which a thaw must copy before any in-place write.
	frozen      bool
	aliasedFlat bool
	thawed      atomic.Bool
	// mu guards the thaw and lazy construction of the CSRs below; readers
	// go through the atomic pointers without locking, so concurrent probes
	// scale while a racing first build happens exactly once.
	mu sync.Mutex
	// fwd and rev are the CSR adjacency of binary relations, published
	// copy-on-write. A probe that finds the CSR behind the relation
	// absorbs the difference as an overlay: freshly appended slots are
	// scanned linearly (append-only overlay) and freshly tombstoned
	// tuples are filtered out via the dedupe index. Once the pending window
	// passes adjTailMax, or a compaction renumbers the slots (gen bump),
	// the CSR is rebuilt from the live slots.
	fwd atomic.Pointer[csr]
	rev atomic.Pointer[csr]
}

// csr is compressed-sparse-row adjacency: the neighbors of u are
// nbr[off[u]:off[u+1]]. off is indexed directly by the dense Sym value
// and sized to the largest key present at build time. slots, retracts
// and gen record the relation state the build covered; a mismatch with
// the live relation means the probe owes overlay work.
type csr struct {
	slots    int
	retracts uint32
	gen      uint32
	ver      uint64
	off      []int32
	nbr      []symtab.Sym
}

// lookup returns the neighbor slice of u, aliasing the CSR arrays.
func (c *csr) lookup(u symtab.Sym) []symtab.Sym {
	i := int(u)
	if i < 0 || i >= len(c.off)-1 {
		return nil
	}
	return c.nbr[c.off[i]:c.off[i+1]]
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
	// Appending keeps every index chain valid; the CSR adjacency picks the
	// new tuple up via the probe-side tail scan and refreshes once the
	// overlay grows (its build state no longer matches the relation's).
	if !r.tab.Add(args) {
		return false
	}
	r.ver++
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
	if !r.tab.Remove(args) {
		return false
	}
	r.retracts++
	r.ver++
	if r.tab.arity == 2 {
		r.retractLog = append(r.retractLog, [2]symtab.Sym{args[0], args[1]})
		if len(r.retractLog) > retractLogMax {
			drop := len(r.retractLog) / 2
			r.retractLog = append(r.retractLog[:0], r.retractLog[drop:]...)
			r.logBase += uint32(drop)
		}
	}
	r.maybeCompact()
	return true
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

// renumbered retires the CSR adjacency once the slots have moved.
func (r *Relation) renumbered() {
	r.gen++ // any published CSR is now addressed in old slots
	r.ver++
	// A gen mismatch forces a rebuild, so the log has no consumers.
	r.retractLog = nil
	r.logBase = r.retracts
	// Unpublish the CSRs so they do not pin the old arrays.
	r.mu.Lock()
	r.fwd.Store(nil)
	r.rev.Store(nil)
	r.mu.Unlock()
}

// Tuple returns the tuple in slot i (aliasing internal storage; callers
// must not mutate it). Slots include tombstoned tuples: code iterating a
// relation that may have seen removals must use Each, which skips them;
// direct slot loops are only exact for insert-only relations. On a
// frozen binary relation the first call materializes the flat storage
// (slot order is CSR order, so published slots stay valid).
func (r *Relation) Tuple(i int) []symtab.Sym {
	r.ensureThawed()
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
		r.eachFrozenBinary(f)
		return
	}
	r.ensureThawed()
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
	r.ensureThawed()
	return r.tab.Find(args) >= 0
}

// adjTailMax bounds how many pending mutations (appended slots plus
// tombstoned tuples) a probe will absorb as an overlay before forcing a
// CSR refresh. Probes therefore pay at most a constant-size overlay
// pass, and a refresh happens at most once per adjTailMax mutations —
// interleaved mutate/probe costs O(m/adjTailMax) amortized per mutation
// instead of a full rebuild on every first probe after a change.
const adjTailMax = 64

// retractLogMax bounds the recent-retraction log; large enough that
// every CSR refresh window (adjTailMax pending mutations) fits with
// slack, small enough to be negligible memory.
const retractLogMax = 256

// pendingDead returns the retractions applied since the CSR build, or
// ok=false when the log has been trimmed past the build point (callers
// then filter conservatively through the liveness map).
func (r *Relation) pendingDead(c *csr) ([][2]symtab.Sym, bool) {
	if c.retracts < r.logBase {
		return nil, false
	}
	return r.retractLog[c.retracts-r.logBase:], true
}

// lookupAdj answers one adjacency probe: the CSR prefix plus the overlay
// the CSR does not cover yet. The common warm case (no pending
// mutations) aliases the CSR and performs no allocation. An insert-only
// overlay aliases the prefix too, copying only when a pending tuple
// matches the key; an overlay containing retractions filters the prefix
// through the dedupe index into a fresh slice.
func (r *Relation) lookupAdj(p *atomic.Pointer[csr], keyCol, valCol int, key symtab.Sym) []symtab.Sym {
	c := p.Load()
	if c != nil && c.ver == r.ver {
		return c.lookup(key) // warm: the CSR is exactly current
	}
	if c == nil || c.gen != r.gen || (r.tab.n-c.slots)+int(r.retracts-c.retracts) > adjTailMax {
		c = r.refreshAdj(p, keyCol, valCol)
	}
	out := c.lookup(key)
	if c.slots == r.tab.n && c.retracts == r.retracts {
		return out
	}
	keyClean := c.retracts == r.retracts
	if !keyClean {
		// Retractions pending — but the recent-retraction log usually
		// shows none of them touched this key, in which case the prefix
		// is still exact and only the tail needs scanning.
		if dead, ok := r.pendingDead(c); ok {
			keyClean = true
			for _, d := range dead {
				if d[keyCol] == key {
					keyClean = false
					break
				}
			}
		}
	}
	if keyClean {
		// Append-only overlay for this key: the prefix is fully live, so
		// alias it and scan the pending slots in insertion order
		// (mutation requires external exclusion of readers, so flat and
		// r.tab.n are stable here). A tail slot retracted again would have
		// logged this key, so live-ness checks are only for safety.
		copied := false
		for i := c.slots; i < r.tab.n; i++ {
			if r.tab.isDead(i) {
				continue
			}
			t := r.Tuple(i)
			if t[keyCol] != key {
				continue
			}
			if !copied {
				out = append(append(make([]symtab.Sym, 0, len(out)+1), out...), t[valCol])
				copied = true
			} else {
				out = append(out, t[valCol])
			}
		}
		return out
	}
	// This key had retractions: keep a prefix neighbor only if its tuple
	// is still live and owned by the CSR build (a retract-then-reassert
	// moved it into the tail, which re-adds it below), then scan the
	// tail for live appends.
	res := make([]symtab.Sym, 0, len(out)+2)
	var tu [2]symtab.Sym
	for _, v := range out {
		tu[keyCol], tu[valCol] = key, v
		if s := r.tab.Find(tu[:]); s >= 0 && s < c.slots {
			res = append(res, v)
		}
	}
	for i := c.slots; i < r.tab.n; i++ {
		if r.tab.isDead(i) {
			continue
		}
		t := r.Tuple(i)
		if t[keyCol] == key {
			res = append(res, t[valCol])
		}
	}
	return res
}

// refreshAdj brings the published CSR up to date — a counting sort over
// the live slots — and returns it.
func (r *Relation) refreshAdj(p *atomic.Pointer[csr], keyCol, valCol int) *csr {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := p.Load(); c != nil && c.ver == r.ver {
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
		slots:    r.tab.n,
		retracts: r.retracts,
		gen:      r.gen,
		ver:      r.ver,
		off:      make([]int32, maxKey+2),
		nbr:      make([]symtab.Sym, r.tab.live),
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

// Successors returns all v with r(u, v). Binary relations only. The
// returned slice aliases the CSR adjacency; the warm path (CSR current,
// no pending overlay) performs no allocation and no hashing.
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
// The tuple aliases internal storage; tuples inserted during the
// iteration are not visited.
func (r *Relation) MatchEach(mask uint32, bound []symtab.Sym, f func(tuple []symtab.Sym)) int {
	if r == nil {
		return 0
	}
	if mask == 0 {
		r.Each(f)
		return r.tab.live
	}
	if r.tab.arity == 2 && r.frozen && !r.thawed.Load() {
		// Frozen binary: a single bound column is a CSR lookup and both
		// bound is a Contains — serving them here keeps probes on a
		// mapped snapshot from paying the O(n) thaw + index build.
		var tu [2]symtab.Sym
		switch mask {
		case 1 << 0:
			nbrs := r.fwd.Load().lookup(bound[0])
			for _, v := range nbrs {
				tu[0], tu[1] = bound[0], v
				f(tu[:])
			}
			return len(nbrs)
		case 1 << 1:
			nbrs := r.rev.Load().lookup(bound[0])
			for _, u := range nbrs {
				tu[0], tu[1] = u, bound[0]
				f(tu[:])
			}
			return len(nbrs)
		case 1<<0 | 1<<1:
			if !r.containsFrozenBinary(bound) {
				return 0
			}
			tu[0], tu[1] = bound[0], bound[1]
			f(tu[:])
			return 1
		}
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
	r.ensureThawed()
	return r.tab.Each(mask, bound, lo, min(hi, r.tab.n), f)
}
