package chaineval

import (
	"fmt"
	"slices"

	"chainlog/internal/automaton"
	"chainlog/internal/edb"
	"chainlog/internal/equations"
	"chainlog/internal/ivm"
	"chainlog/internal/symtab"
)

// View keeps p(a, Y) current across writes to the store: it is the
// interpretation graph G(p, a) of a regular equation — the run's visited
// set — held between writes instead of dropped, and brought along by each
// write's net base delta. A regular chain query distributes over the
// union of its base relations, so an inserted fact only resumes the
// traversal: each state with a transition on its predicate whose node at
// the fact's source term is visited gains the node at its target. A
// deleted fact is DRed on the graph: what its arcs' targets reach inside
// the set is overdeleted, each overdeleted node with a surviving
// predecessor is rederived, and the traversal resumes from those. Every
// node is inserted by Engine.visit and every arc followed by
// Engine.follow, so the graph is the one a fresh run builds. Its size is
// bounded by states × terms.
//
// All maintenance reads the store after the write: a View is brought
// along inside the write's critical section, with no reader of the store
// in flight. It is not safe for concurrent use.
type View struct {
	e    *Engine
	sc   runScratch // owned, not pooled: it is the view
	root node       // (Start, a), which nothing overdeletes
	// byPred lists the transitions on each base predicate: the arcs a fact
	// makes. in lists the transitions into each state, by label: where a
	// node's derivations come from.
	byPred map[string][]arc
	in     [][]inLabel

	// The write in progress: the nodes it overdeleted, as a set and in
	// order, the overdeletion worklist, the terms it visited at Final (the
	// scratch's arrivals), and the terms of its answer delta, added then
	// removed.
	over    visitedSet
	dead    []node
	work    []node
	answers []symtab.Sym
	terms   []symtab.Sym
	// delta and flat hold the answer delta ApplyBase returns.
	delta [][]symtab.Sym
	flat  []symtab.Sym

	repairs uint64
}

// arc is transition t, leaving state from.
type arc struct {
	from int
	t    *automaton.Edge
}

// inLabel is the transitions into one state on one label: t is one of
// them — the label, its kind and its relation — and from the states they
// leave.
type inLabel struct {
	t    *automaton.Edge
	from []int
}

// NewView evaluates pred(a, Y) over sys and the store and keeps its
// graph. The equation for pred must be regular. As with Query, p(X, b) is
// p(b, Y) over sys.Reverse(); Tuples then reads the pairs of the inverse.
func NewView(sys *equations.System, store *edb.Store, pred string, a symtab.Sym) (*View, error) {
	v := &View{}
	v.e = New(sys, StoreSource{Store: store}, Options{})
	c, err := v.e.compiled(pred)
	if err != nil {
		return nil, err
	}
	if !c.regular {
		return nil, fmt.Errorf("chaineval: no view of %s: its equation is not regular", pred)
	}
	m := c.m
	v.byPred = make(map[string][]arc)
	v.in = make([][]inLabel, m.NumStates())
	for q := range m.NumStates() {
		edges := m.Edges(q)
		for i := range edges {
			t := &edges[i]
			v.addIn(q, t)
			if t.Kind == automaton.KindBase || t.Kind == automaton.KindBaseInv {
				v.byPred[t.Label.Pred] = append(v.byPred[t.Label.Pred], arc{q, t})
			}
		}
	}
	v.sc.m, v.sc.rels, v.sc.arrivals = m, v.e.bind(nil), &v.answers
	v.root = node{m.Start, a}
	v.e.visit(&v.sc, m.Start, a)
	if err := v.e.traverse(&v.sc); err != nil {
		return nil, err
	}
	v.settle()
	return v, nil
}

// addIn records transition t, leaving q, among those into its target.
func (v *View) addIn(q int, t *automaton.Edge) {
	in := v.in[t.To]
	for k := range in {
		if in[k].t.Kind == t.Kind && in[k].t.Label == t.Label {
			in[k].from = append(in[k].from, q)
			return
		}
	}
	v.in[t.To] = append(in, inLabel{t, []int{q}})
}

// ApplyBase folds one net base delta, already written to the store, into
// the graph: deletions first, then insertions, then one traversal drains
// both. It returns the pairs (a, u) of the terms u that reached Final and
// were not there before, and of those that left; a term overdeleted and
// rederived by the same write is in neither. They are the view's storage,
// valid until the next ApplyBase. The error is the signature ivm.View
// shares; a View returns none.
func (v *View) ApplyBase(inserted, deleted []ivm.Fact) (added, removed [][]symtab.Sym, err error) {
	if !v.reads(inserted) && !v.reads(deleted) {
		return nil, nil, nil
	}
	sc := &v.sc
	// The write may have created a relation the view reads.
	sc.rels = v.e.bind(sc.rels[:0])
	for _, f := range deleted {
		for _, r := range v.byPred[f.Pred] {
			if from, to, ok := r.ends(f); ok && (sc.G.has(r.from, from) || v.over.has(r.from, from)) {
				v.overdelete(node{int(r.t.To), to})
			}
		}
	}
	if len(v.dead) > 0 {
		v.repairs++
		for _, n := range v.dead {
			if v.rederivable(n) {
				v.e.visit(sc, n.q, n.u)
			}
		}
	}
	for _, f := range inserted {
		for _, r := range v.byPred[f.Pred] {
			if from, to, ok := r.ends(f); ok && sc.G.has(r.from, from) {
				v.e.visit(sc, int(r.t.To), to)
			}
		}
	}
	if err := v.e.traverse(sc); err != nil {
		return nil, nil, err
	}
	final := sc.m.Final
	v.terms = v.terms[:0]
	for _, u := range v.answers {
		if !v.over.has(final, u) {
			v.terms = append(v.terms, u)
		}
	}
	na := len(v.terms)
	for _, n := range v.dead {
		if n.q == final && !sc.G.has(final, n.u) {
			v.terms = append(v.terms, n.u)
		}
	}
	v.delta, v.flat = v.pairs(v.delta, v.flat, v.terms)
	added, removed = v.delta[:na:na], v.delta[na:]
	if na == 0 {
		added = nil
	}
	if len(removed) == 0 {
		removed = nil
	}
	v.settle()
	return added, removed, nil
}

// reads reports whether some fact is of a predicate a transition reads.
func (v *View) reads(facts []ivm.Fact) bool {
	for _, f := range facts {
		if v.byPred[f.Pred] != nil {
			return true
		}
	}
	return false
}

// ends returns the terms fact f joins by r's transition: the term of the
// node it leaves and of the node it reaches. An inverse label reads the
// fact backwards.
func (r arc) ends(f ivm.Fact) (from, to symtab.Sym, ok bool) {
	if len(f.Args) != 2 {
		return 0, 0, false
	}
	if r.t.Kind == automaton.KindBaseInv {
		return f.Args[1], f.Args[0], true
	}
	return f.Args[0], f.Args[1], true
}

// overdelete removes n, when it is held, and every held node it reaches
// by the store's arcs, except the root.
func (v *View) overdelete(n node) {
	sc := &v.sc
	v.work = v.work[:0]
	v.kill(n)
	for len(v.work) > 0 {
		n := v.work[len(v.work)-1]
		v.work = v.work[:len(v.work)-1]
		var vs []symtab.Sym
		edges := sc.m.Edges(n.q)
		for i := range edges {
			t := &edges[i]
			if t.Kind == automaton.KindID {
				v.kill(node{int(t.To), n.u})
				continue
			}
			if !t.Fan {
				vs = v.e.probe(t, n.u, sc.rels, &sc.work)
			}
			for _, u := range vs {
				v.kill(node{int(t.To), u})
			}
		}
	}
}

// kill overdeletes n, when it is held and not the root, and queues it.
func (v *View) kill(n node) {
	if n == v.root || !v.sc.G.has(n.q, n.u) {
		return
	}
	v.sc.G.remove(n.q, n.u)
	v.over.visit(n.q, n.u)
	v.dead = append(v.dead, n)
	v.work = append(v.work, n)
}

// rederivable reports whether overdeleted n has a held predecessor: one
// reverse probe per label its state is entered by.
func (v *View) rederivable(n node) bool {
	for _, in := range v.in[n.q] {
		if in.t.Kind == automaton.KindID {
			if v.holdsAny(in.from, n.u) {
				return true
			}
			continue
		}
		for _, x := range probeBack(in.t, n.u, v.sc.rels, &v.sc.work) {
			if v.holdsAny(in.from, x) {
				return true
			}
		}
	}
	return false
}

// holdsAny reports whether the node of u at one of the states is held.
func (v *View) holdsAny(states []int, u symtab.Sym) bool {
	for _, q := range states {
		if v.sc.G.has(q, u) {
			return true
		}
	}
	return false
}

// settle ends a build or a write: the write's sets and logs empty, and
// the kept set forgets the words a clear would zero, since nothing clears
// it.
func (v *View) settle() {
	v.over.clear()
	v.dead = v.dead[:0]
	v.answers = v.answers[:0]
	v.sc.G.keep()
}

// Tuples returns the pairs (a, u) of the terms u at Final, in symbol
// order.
func (v *View) Tuples() [][]symtab.Sym {
	ts, _ := v.pairs(nil, nil, v.sc.G.appendState(nil, v.sc.m.Final))
	return ts
}

// pairs lays out the tuples (a, u) of the terms us in the storage of ts
// and flat, grown when it is short.
func (v *View) pairs(ts [][]symtab.Sym, flat, us []symtab.Sym) ([][]symtab.Sym, []symtab.Sym) {
	ts, flat = slices.Grow(ts[:0], len(us)), slices.Grow(flat[:0], 2*len(us))
	for _, u := range us {
		flat = append(flat, v.root.u, u)
		ts = append(ts, flat[len(flat)-2:len(flat):len(flat)])
	}
	return ts, flat
}

// Stats reports the graph's node count as Facts and, as Repairs, the
// writes that overdeleted a node.
func (v *View) Stats() ivm.Stats {
	return ivm.Stats{Repairs: v.repairs, Facts: v.sc.G.count}
}

// probeBack is probe against the arc: the terms whose node t leads from
// to u's. Every edge of a View is annotated, so it reads the bound
// relation.
func probeBack(t *automaton.Edge, u symtab.Sym, rels []*edb.Relation, work *edb.Counters) []symtab.Sym {
	r := rels[t.Aux]
	if r == nil {
		return nil
	}
	if t.Kind == automaton.KindBaseInv {
		return tally(work, r.Successors(u))
	}
	return tally(work, r.Predecessors(u))
}
