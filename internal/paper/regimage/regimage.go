// Package regimage evaluates derived-free ("regular") relational
// expressions node-at-a-time: given a source of base relations and an
// expression e, it computes images of single terms or term sets under the
// relation denoted by e by traversing the automaton M(e).
//
// This is the set-at-a-time primitive shared by the comparison methods
// (Henschen–Naqvi and counting): both repeatedly apply e1, e0 and e2
// images for equations of the shape p = e0 ∪ e1·p·e2. The chain engine's
// cyclic bound does not use it; it traverses M(e1*) and M(e0·e2*) with
// the engine itself.
package regimage

import (
	"slices"

	"chainlog/internal/automaton"
	"chainlog/internal/chaineval"
	"chainlog/internal/edb"
	"chainlog/internal/expr"
	"chainlog/internal/symtab"
)

// Evaluator computes images under one compiled expression.
//
// When the source is a chaineval.StoreSource, every base-predicate
// transition is resolved to its concrete CSR relation once at compile
// time and probed directly — no per-probe name hashing. Either way every
// probe is added to one tally, the work counters the evaluator was built
// with.
type Evaluator struct {
	m   *automaton.NFA
	src chaineval.Source
	// rels is indexed by the Aux annotation of the automaton's edges;
	// edges left at NoAux (no relation yet, or not a StoreSource) probe
	// the Source by name.
	rels []*edb.Relation
	work *edb.Counters
}

// New compiles e (which must not mention derived predicates) for the
// given source; the evaluator adds every probe it makes to work.
func New(e expr.Expr, src chaineval.Source, work *edb.Counters) *Evaluator {
	ev := &Evaluator{m: automaton.Compile(e), src: src, work: work}
	if ss, ok := src.(chaineval.StoreSource); ok {
		idx := make(map[string]int32)
		ev.m.Annotate(func(string) bool { return false }, func(pred string) int32 {
			if i, ok := idx[pred]; ok {
				return i
			}
			rel := ss.Store.Relation(pred)
			if rel == nil {
				return automaton.NoAux
			}
			idx[pred] = int32(len(ev.rels))
			ev.rels = append(ev.rels, rel)
			return idx[pred]
		})
	}
	return ev
}

// probe returns the adjacency of u across edge t, through the resolved
// CSR relation when available, and tallies it.
func (ev *Evaluator) probe(t *automaton.Edge, u symtab.Sym) []symtab.Sym {
	if t.Aux >= 0 {
		var out []symtab.Sym
		if t.Label.Inv {
			out = ev.rels[t.Aux].Predecessors(u)
		} else {
			out = ev.rels[t.Aux].Successors(u)
		}
		ev.work.Lookups++
		ev.work.Retrieved += int64(len(out))
		return out
	}
	if t.Label.Inv {
		return ev.src.Predecessors(t.Label.Pred, u, ev.work)
	}
	return ev.src.Successors(t.Label.Pred, u, ev.work)
}

type node struct {
	q int
	u symtab.Sym
}

// Image returns the sorted image of u: all v with e(u, v).
func (ev *Evaluator) Image(u symtab.Sym) []symtab.Sym {
	return ev.ImageSet([]symtab.Sym{u})
}

// ImageSet returns the sorted union of images of the given terms. The
// traversal memoizes (state, term) nodes within one call, so overlapping
// paths from different sources are walked once per call — but not across
// calls (which is exactly the Henschen–Naqvi drawback the paper's sample
// (c) exposes; the comparison methods call ImageSet once per level).
func (ev *Evaluator) ImageSet(us []symtab.Sym) []symtab.Sym {
	G := make(map[node]bool)
	var stack []node
	out := make(map[symtab.Sym]bool)
	visit := func(n node) {
		if !G[n] {
			G[n] = true
			stack = append(stack, n)
			if n.q == ev.m.Final {
				out[n.u] = true
			}
		}
	}
	for _, u := range us {
		visit(node{ev.m.Start, u})
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// A transition with several targets is probed once, at its head.
		var vs []symtab.Sym
		edges := ev.m.Edges(n.q)
		for i := range edges {
			t := &edges[i]
			if t.Kind == automaton.KindID {
				visit(node{int(t.To), n.u})
				continue
			}
			if !t.Fan {
				vs = ev.probe(t, n.u)
			}
			for _, v := range vs {
				visit(node{int(t.To), v})
			}
		}
	}
	return sortedSyms(out)
}

// Closure returns the set of terms reachable from starts by zero or more
// applications of e (the accessible-node sets D1/D2 of the cyclic bound).
func (ev *Evaluator) Closure(starts []symtab.Sym) []symtab.Sym {
	seen := make(map[symtab.Sym]bool)
	work := append([]symtab.Sym(nil), starts...)
	for _, s := range starts {
		seen[s] = true
	}
	for len(work) > 0 {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		for _, v := range ev.Image(u) {
			if !seen[v] {
				seen[v] = true
				work = append(work, v)
			}
		}
	}
	out := make([]symtab.Sym, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

func sortedSyms(set map[symtab.Sym]bool) []symtab.Sym {
	out := make([]symtab.Sym, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}
