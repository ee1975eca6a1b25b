package edb

import (
	"sync/atomic"

	"chainlog/internal/symtab"
)

// Adj is a read view of one direction of a binary relation's published
// CSR: its offsets, its neighbors and the bitset of the keys a write
// named since the build. A reader that probes one relation many times —
// a chain traversal — holds a view per direction, so that the probe of a
// key no write named is a bit test and two array loads, inlined (Lookup),
// where Successors pays an arity check, an atomic load and three calls.
//
// A view binds to the CSR its relation publishes on its first Probe, and
// reads that CSR until it is bound again (Relation.Adj). Like any reader
// it must not be used across a write: a reader that outlives one takes a
// fresh view after it.
type Adj struct {
	off  []int32
	nbr  []symtab.Sym
	keys []uint64
	// c is the CSR the view is bound to, nil until its first Probe.
	c   *csr
	r   *Relation
	inv bool
}

// Adj returns an unbound view of r's successors, or of its predecessors
// when inv is set. The view of a nil relation finds nothing.
func (r *Relation) Adj(inv bool) Adj { return Adj{r: r, inv: inv} }

// Lookup returns the neighbors of u when the view holds them as they
// are: it is bound, u is one of its CSR's keys, and no write named u
// since the build. Otherwise it reports false, and Probe answers. The
// slice aliases the CSR.
func (a *Adj) Lookup(u symtab.Sym) ([]symtab.Sym, bool) {
	i := uint(u)
	if i+1 >= uint(len(a.off)) || i>>6 < uint(len(a.keys)) && a.keys[i>>6]&(1<<(i&63)) != 0 {
		return nil, false
	}
	return a.nbr[a.off[i]:a.off[i+1]], true
}

// Probe returns the neighbors of u as Successors or Predecessors does,
// binding the view first when it is not bound. It reports false, and
// finds nothing, when the view is of no relation.
func (a *Adj) Probe(u symtab.Sym) ([]symtab.Sym, bool) {
	if vs, ok := a.Lookup(u); ok {
		return vs, true
	}
	r := a.r
	if r == nil {
		return nil, false
	}
	p, keyCol, valCol := r.dir(a.inv)
	if a.c == nil {
		c := p.Load()
		if c == nil {
			c = r.refreshAdj(p, keyCol, valCol)
		}
		a.c, a.off, a.nbr, a.keys = c, c.off, c.nbr, c.keys
	}
	if a.c.written(u) {
		return r.merged(a.c, valCol, u), true
	}
	return a.c.lookup(u), true
}

// dir returns the CSR pointer of one direction of a binary relation,
// forward or inverse, with its key and neighbor columns.
func (r *Relation) dir(inv bool) (p *atomic.Pointer[csr], keyCol, valCol int) {
	if r.tab.arity != 2 {
		panic("edb: adjacency of non-binary relation " + r.name)
	}
	if inv {
		return &r.rev, 1, 0
	}
	return &r.fwd, 0, 1
}
