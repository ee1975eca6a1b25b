// Package regimage evaluates derived-free ("regular") relational
// expressions node-at-a-time: given a source of base relations and an
// expression e, it computes images of single terms or term sets under the
// relation denoted by e by traversing the automaton M(e).
//
// This is the set-at-a-time primitive shared by the comparison methods
// (Henschen–Naqvi and counting) and by the cyclic-bound computation: all
// of them repeatedly apply e1, e0 and e2 images for equations of the
// shape p = e0 ∪ e1·p·e2.
package regimage

import (
	"slices"

	"chainlog/internal/automaton"
	"chainlog/internal/chaineval"
	"chainlog/internal/edb"
	"chainlog/internal/expr"
	"chainlog/internal/symtab"
)

// probeStat accumulates raw-path probe statistics for one relation
// between flushes.
type probeStat struct {
	lookups, retrieved int64
}

// Evaluator computes images under one compiled expression.
//
// When the source exposes chaineval.RelationResolver (StoreSource
// does), every base-predicate transition is resolved to its concrete
// CSR relation once at compile time and probed through the raw
// (uncounted) adjacency accessors — no per-probe name hashing, no
// per-probe atomics. The probe statistics are accumulated locally and
// flushed to the owning CounterSet once per public call, so retrieval
// accounting (Stats.FactsConsulted, the optimizer's work feedback)
// sees exactly the same totals as the by-name counted path.
type Evaluator struct {
	m   *automaton.NFA
	src chaineval.Source
	// rels is indexed by the Aux annotation of the automaton's edges;
	// edges left at NoAux (unresolvable predicate, or no resolver) use
	// the by-name counted Source path, which performs its own accounting.
	rels  []*edb.Relation
	stats []probeStat
	// named takes what the by-name probes tally for their caller; the
	// paper's tables read the store's counters, so nothing reads it.
	named edb.Counters
}

// New compiles e (which must not mention derived predicates) for the
// given source.
func New(e expr.Expr, src chaineval.Source) *Evaluator {
	ev := &Evaluator{m: automaton.Compile(e), src: src}
	if rr, ok := src.(chaineval.RelationResolver); ok {
		idx := make(map[string]int32)
		ev.m.Annotate(func(string) bool { return false }, func(pred string) int32 {
			if i, ok := idx[pred]; ok {
				return i
			}
			rel := rr.ResolveRelation(pred)
			if rel == nil {
				return automaton.NoAux
			}
			idx[pred] = int32(len(ev.rels))
			ev.rels = append(ev.rels, rel)
			return idx[pred]
		})
		ev.stats = make([]probeStat, len(ev.rels))
	}
	return ev
}

// probe returns the adjacency of u across edge t, through the resolved
// CSR relation when available.
func (ev *Evaluator) probe(t *automaton.Edge, u symtab.Sym) []symtab.Sym {
	if t.Aux >= 0 {
		rel := ev.rels[t.Aux]
		var out []symtab.Sym
		if t.Label.Inv {
			out = rel.PredecessorsRaw(u)
		} else {
			out = rel.SuccessorsRaw(u)
		}
		s := &ev.stats[t.Aux]
		s.lookups++
		s.retrieved += int64(len(out))
		return out
	}
	if t.Label.Inv {
		return ev.src.Predecessors(t.Label.Pred, u, &ev.named)
	}
	return ev.src.Successors(t.Label.Pred, u, &ev.named)
}

// flush publishes accumulated raw-path statistics to the owning
// stores' counters, one batched add per touched relation.
func (ev *Evaluator) flush() {
	for i := range ev.stats {
		if s := &ev.stats[i]; s.lookups != 0 || s.retrieved != 0 {
			ev.rels[i].Counters().AddBatch(uint32(i), s.lookups, s.retrieved)
			*s = probeStat{}
		}
	}
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
	if ev.stats != nil {
		defer ev.flush()
	}
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
