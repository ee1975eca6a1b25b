package edb

// Counts for the cost-based optimizer: a binary relation's key count in
// each direction, read off its CSR offset array, and per-column distinct
// counts for wider relations.

import "chainlog/internal/symtab"

// Version returns the relation's mutation version: it advances on every
// insert, remove and compaction, so derived artifacts (statistics,
// caches) stamped with a version are exactly current while the version
// matches. A nil relation reports 0; versions start at 0 for an empty
// relation and InstallCSR-built frozen relations report their install
// version.
func (r *Relation) Version() uint64 {
	if r == nil {
		return 0
	}
	return r.ver
}

// Keys returns the number of keys with at least one neighbor: distinct
// first-column values over the forward CSR, distinct second-column
// values over the reverse CSR when inverse is set. Binary relations
// only. A CSR with pending writes is rebuilt first — the rebuild a probe
// pays once the writes pass adjTailMax — so the count is exact whatever
// was written since the last build. The caller must exclude writers, as
// with any read.
func (r *Relation) Keys(inverse bool) int {
	if r == nil {
		return 0
	}
	if r.tab.arity != 2 {
		panic("edb: Keys on non-binary relation " + r.name)
	}
	p, keyCol, valCol := &r.fwd, 0, 1
	if inverse {
		p, keyCol, valCol = &r.rev, 1, 0
	}
	c := p.Load()
	if c == nil || len(c.writes) > 0 {
		c = r.refreshAdj(p, keyCol, valCol)
	}
	n, prev := 0, int32(0)
	for _, o := range c.off {
		if o != prev {
			n++
		}
		prev = o
	}
	return n
}

// ColumnDistinct returns the number of distinct values in column col
// across live tuples. O(n); callers cache per Version.
func (r *Relation) ColumnDistinct(col int) int {
	if r == nil || col >= r.tab.arity {
		return 0
	}
	seen := make(map[symtab.Sym]struct{}, r.Len())
	r.Each(func(t []symtab.Sym) { seen[t[col]] = struct{}{} })
	return len(seen)
}
