package edb

import (
	"fmt"
	"slices"

	"chainlog/internal/symtab"
)

// Frozen relations.
//
// A frozen relation is constructed directly in the published CSR layout —
// from a binary snapshot's mapped sections (InstallCSR / InstallFlat) or
// from a bulk edge list (BuildBinary: ingestion, a snapshot restored into
// a live table, and a program load creating a dense binary relation) —
// without ever materializing the flat tuple storage or the dedupe index
// that per-tuple Insert maintains.
// The hot probes (Successors/Predecessors, Each, Domain, binary Contains)
// run straight off the CSR, so a store assembled from a snapshot answers
// chain queries with zero per-tuple load cost and, for mapped sections,
// zero copies.
//
// The first operation that genuinely needs the mutable representation —
// Insert, Remove, a bound-column MatchEach the CSR cannot serve, Tuple —
// thaws the relation: flat storage is built from the CSR once, O(n), and
// the relation behaves like any other from then on (its indexes, the
// dedupe index among them, build on first use as everywhere). Thawing never writes through an
// aliased (possibly read-only mapped) slice; it copies.

// installRelation registers a new, empty-slotted relation shell under
// pred, failing if the name is taken.
func (s *Store) installRelation(pred string, arity int) (*Relation, error) {
	if _, ok := s.rels[pred]; ok {
		return nil, fmt.Errorf("edb: relation %s already exists", pred)
	}
	r := &Relation{name: pred, tab: Table{arity: arity}, frozen: true}
	s.rels[pred] = r
	s.names = append(s.names, pred)
	return r, nil
}

// InstallCSR installs pred as a frozen binary relation backed directly by
// the given CSR arrays: the successors of u are fwdNbr[fwdOff[u]:fwdOff[u+1]]
// and the predecessors of v are revNbr[revOff[v]:revOff[v+1]]. The slices
// are aliased, not copied — they may point into a read-only file mapping
// and must stay valid for the relation's lifetime (a thaw or compaction
// stops referencing them but never writes them).
//
// Caller contract (validated by snapshot.Parse for mapped sections,
// guaranteed by construction in BuildBinary): both offset arrays are
// monotone and end at len(nbr), neighbor lists are sorted ascending
// within each key, and the relation holds no duplicate edges.
func (s *Store) InstallCSR(pred string, fwdOff []int32, fwdNbr []symtab.Sym, revOff []int32, revNbr []symtab.Sym) (*Relation, error) {
	if len(fwdNbr) != len(revNbr) {
		return nil, fmt.Errorf("edb: InstallCSR %s: forward holds %d edges, inverse %d", pred, len(fwdNbr), len(revNbr))
	}
	r, err := s.installRelation(pred, 2)
	if err != nil {
		return nil, err
	}
	n := len(fwdNbr)
	r.tab.n, r.tab.live = n, n
	r.ver = 1 // matches the published CSR stamps: probes stay on the warm path
	r.fwd.Store(&csr{slots: n, ver: 1, off: fwdOff, nbr: fwdNbr})
	r.rev.Store(&csr{slots: n, ver: 1, off: revOff, nbr: revNbr})
	return r, nil
}

// InstallFlat installs pred as a frozen non-binary relation whose tuple
// storage aliases flat (stride arity, count tuples). Like InstallCSR the
// slice may point into a read-only mapping; the first mutation copies it.
// Binary relations always install as CSR.
func (s *Store) InstallFlat(pred string, arity, count int, flat []symtab.Sym) (*Relation, error) {
	if arity == 2 {
		return nil, fmt.Errorf("edb: InstallFlat %s: binary relations install as CSR", pred)
	}
	if len(flat) != count*arity {
		return nil, fmt.Errorf("edb: InstallFlat %s: %d syms for %d tuples of arity %d", pred, len(flat), count, arity)
	}
	r, err := s.installRelation(pred, arity)
	if err != nil {
		return nil, err
	}
	r.tab.n, r.tab.live = count, count
	r.ver = 1
	r.tab.flat = flat
	r.aliasedFlat = true
	return r, nil
}

// BuildBinary bulk-loads pred as a frozen binary relation from an edge
// list, a flat list of (u, v) pairs (see CSR) — no per-tuple hashing, no
// dedup map. The pairs are scratch the caller may discard; the built
// arrays are fresh heap memory.
func (s *Store) BuildBinary(pred string, pairs []symtab.Sym) (*Relation, error) {
	maxSym := symtab.Sym(-1)
	for _, x := range pairs {
		maxSym = max(maxSym, x)
	}
	fwdOff, fwdNbr, revOff, revNbr := CSR(pairs, int(maxSym)+1)
	return s.InstallCSR(pred, fwdOff, fwdNbr, revOff, revNbr)
}

// CSRPays reports whether n binary tuples whose largest symbol is maxSym
// take less memory built as CSR than inserted into a table: the two
// offset arrays, 4 B per key each, against the roughly 24 B per tuple a
// table pays for its storage and dedupe index. A few tuples naming a
// high symbol — facts beside a large snapshot — do not pay for two
// arrays over the whole symbol domain.
func CSRPays(n int, maxSym symtab.Sym) bool {
	return 8*(int(maxSym)+1) <= 24*n
}

// CSR lays an edge list over the keys 0..bound-1 (bound past every
// symbol in it) out as both adjacency directions, in the arrays
// InstallCSR takes, by two counting sorts: the successors of u are
// fwdNbr[fwdOff[u]:fwdOff[u+1]] and its predecessors likewise in rev,
// each list ascending. The edges are pairs[2i] -> pairs[2i+1]. Duplicate
// edges are dropped (neighbor lists are sorted, so duplicates are
// adjacent).
func CSR(pairs []symtab.Sym, bound int) (fwdOff []int32, fwdNbr []symtab.Sym, revOff []int32, revNbr []symtab.Sym) {
	// Forward: count per source, prefix-sum, scatter, then sort and
	// dedup each bucket in place (writes trail reads, so compacting into
	// the same array is safe).
	fwdOff = make([]int32, bound+1)
	for i := 0; i < len(pairs); i += 2 {
		fwdOff[int(pairs[i])+1]++
	}
	for i := 1; i < len(fwdOff); i++ {
		fwdOff[i] += fwdOff[i-1]
	}
	fwdNbr = make([]symtab.Sym, len(pairs)/2)
	fill := make([]int32, bound)
	for i := 0; i < len(pairs); i += 2 {
		u := int(pairs[i])
		fwdNbr[fwdOff[u]+fill[u]] = pairs[i+1]
		fill[u]++
	}
	w := int32(0)
	packedOff := make([]int32, bound+1)
	for u := range bound {
		b := fwdNbr[fwdOff[u]:fwdOff[u+1]]
		slices.Sort(b)
		packedOff[u] = w
		last := symtab.Sym(-1)
		for _, v := range b {
			if v == last {
				continue
			}
			fwdNbr[w] = v
			last = v
			w++
		}
	}
	packedOff[bound] = w
	fwdOff, fwdNbr = packedOff, fwdNbr[:w]
	// Inverse: counting sort of the deduped forward edges by target.
	// Scanning sources in ascending order makes each predecessor list
	// arrive already sorted, and dedup is done.
	revOff = make([]int32, bound+1)
	for _, v := range fwdNbr {
		revOff[int(v)+1]++
	}
	for i := 1; i < len(revOff); i++ {
		revOff[i] += revOff[i-1]
	}
	revNbr = make([]symtab.Sym, len(fwdNbr))
	clear(fill)
	for u := range bound {
		for _, v := range fwdNbr[fwdOff[u]:fwdOff[u+1]] {
			revNbr[revOff[v]+fill[v]] = symtab.Sym(u)
			fill[v]++
		}
	}
	return fwdOff, fwdNbr, revOff, revNbr
}

// thaw materializes the mutable representation of a frozen relation:
// heap-owned flat storage, decoded from the CSR for binary relations,
// copied out of the aliased slice otherwise. Safe to
// trigger from read paths — concurrent readers either still see the
// frozen fast paths (they have not observed thawed yet) or see the fully
// built state through the atomic flag's ordering; the build itself is
// serialized by r.mu.
func (r *Relation) thaw() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.thawed.Load() {
		return
	}
	if r.tab.arity == 2 && r.tab.flat == nil {
		c := r.fwd.Load()
		flat := make([]symtab.Sym, 0, 2*r.tab.n)
		for u := 0; u+1 < len(c.off); u++ {
			for _, v := range c.nbr[c.off[u]:c.off[u+1]] {
				flat = append(flat, symtab.Sym(u), v)
			}
		}
		r.tab.flat = flat
	} else if r.aliasedFlat {
		r.tab.flat = append(make([]symtab.Sym, 0, len(r.tab.flat)), r.tab.flat...)
		r.aliasedFlat = false
	}
	r.thawed.Store(true)
}

// Frozen reports whether r is still in the layout it was built or
// mapped in: no write has thawed it.
func (r *Relation) Frozen() bool { return r.frozen && !r.thawed.Load() }

// ensureThawed is the guard mutating and slot-addressed operations go
// through; it is a single predictable branch for ordinary relations.
func (r *Relation) ensureThawed() {
	if r.frozen && !r.thawed.Load() {
		r.thaw()
	}
}

// containsFrozenBinary answers Contains on a frozen binary relation by
// binary search over the sorted CSR neighbor list — no map, no thaw.
func (r *Relation) containsFrozenBinary(args []symtab.Sym) bool {
	nbrs := r.fwd.Load().lookup(args[0])
	_, ok := slices.BinarySearch(nbrs, args[1])
	return ok
}

// eachFrozenBinary iterates a frozen binary relation straight off the
// CSR in key order, handing f the scratch tuple tu (two symbols) each
// time.
func (r *Relation) eachFrozenBinary(tu []symtab.Sym, f func(tuple []symtab.Sym)) {
	c := r.fwd.Load()
	for u := 0; u+1 < len(c.off); u++ {
		for _, v := range c.nbr[c.off[u]:c.off[u+1]] {
			tu[0], tu[1] = symtab.Sym(u), v
			f(tu)
		}
	}
}
