package edb

// Statistics accessors for the cost-based optimizer: the degree
// distribution of a binary relation read straight off its CSR offset
// array, and per-column distinct counts. These are the "nearly free"
// statistics — DegreeEach forces at most one CSR rebuild and then walks
// the offset array without touching the neighbor lists.

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

// DegreeEach calls f once for every key with at least one neighbor,
// with that key's adjacency degree: out-degrees over the forward CSR
// (key = column 0), in-degrees over the reverse CSR when inverse is
// set. Binary relations only. A CSR with pending writes is rebuilt
// first — the rebuild a probe pays once the writes pass adjTailMax — so
// the degrees are exact whatever was written since the last build. The
// caller must exclude writers, as with any read.
func (r *Relation) DegreeEach(inverse bool, f func(key symtab.Sym, degree int)) {
	if r == nil {
		return
	}
	if r.tab.arity != 2 {
		panic("edb: DegreeEach on non-binary relation " + r.name)
	}
	p, keyCol, valCol := &r.fwd, 0, 1
	if inverse {
		p, keyCol, valCol = &r.rev, 1, 0
	}
	c := p.Load()
	if c == nil || len(c.writes) > 0 {
		c = r.refreshAdj(p, keyCol, valCol)
	}
	for u := 0; u+1 < len(c.off); u++ {
		if d := int(c.off[u+1] - c.off[u]); d > 0 {
			f(symtab.Sym(u), d)
		}
	}
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
