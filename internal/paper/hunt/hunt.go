// Package hunt implements the original algorithm of Hunt, Szymanski and
// Ullman [CACM 1977] for evaluating binary-relational expressions: the
// entire graph G(p) for the expression e_p is preconstructed — one node
// (q, u) per automaton state and domain element, one arc per tuple of
// every argument relation occurrence — and the query p(a, Y) is answered
// by a reachability search from (q_start, a).
//
// The paper calls this variant impractical precisely because the graph
// "contains copies of all tuples from every argument relation" even when
// large portions are irrelevant to the query or unreachable for any query
// constant; the demand-driven reorganization of Section 3 is the paper's
// improvement. Ablation A1 compares the two on the same inputs, reporting
// preconstructed arcs vs. demand-constructed nodes and facts consulted.
package hunt

import (
	"slices"

	"chainlog/internal/automaton"
	"chainlog/internal/edb"
	"chainlog/internal/expr"
	"chainlog/internal/symtab"
)

// Graph is the preconstructed evaluation graph for one expression.
type Graph struct {
	m   *automaton.NFA
	adj map[node][]node
	// Stats of the preconstruction.
	Stats Stats
}

// Stats describes the preconstruction cost.
type Stats struct {
	// Arcs is the number of arcs materialized (tuple copies, the paper's
	// size measure for expressions).
	Arcs int
	// Nodes is the number of distinct (state, term) nodes touched.
	Nodes int
	// DomainSize is the size of the active domain used for id arcs.
	DomainSize int
}

type node struct {
	q int
	u symtab.Sym
}

// Build preconstructs G(p) for a derived-free expression over the store.
// Every tuple of every base relation occurrence becomes an arc, and every
// id transition fans out over the whole active domain — by design: this
// is the baseline whose cost the demand-driven algorithm avoids.
func Build(e expr.Expr, store *edb.Store) *Graph {
	g := &Graph{m: automaton.Compile(e), adj: make(map[node][]node)}

	// Active domain: every symbol occurring in any relation.
	domainSet := make(map[symtab.Sym]bool)
	for _, name := range store.Relations() {
		r := store.Relation(name)
		r.Each(func(t []symtab.Sym) {
			for _, s := range t {
				domainSet[s] = true
			}
		})
	}
	domain := make([]symtab.Sym, 0, len(domainSet))
	for s := range domainSet {
		domain = append(domain, s)
	}
	slices.Sort(domain)
	g.Stats.DomainSize = len(domain)

	nodes := make(map[node]bool)
	addArc := func(from, to node) {
		g.adj[from] = append(g.adj[from], to)
		g.Stats.Arcs++
		nodes[from] = true
		nodes[to] = true
	}

	g.m.Each(func(t automaton.Trans) {
		switch {
		case t.Label.IsID():
			for _, u := range domain {
				addArc(node{t.From, u}, node{t.To, u})
			}
		default:
			r := store.Relation(t.Label.Pred)
			if r == nil {
				return
			}
			r.Each(func(tuple []symtab.Sym) {
				if t.Label.Inv {
					addArc(node{t.From, tuple[1]}, node{t.To, tuple[0]})
				} else {
					addArc(node{t.From, tuple[0]}, node{t.To, tuple[1]})
				}
			})
		}
	})
	g.Stats.Nodes = len(nodes)
	return g
}

// Query answers p(a, Y) by depth-first reachability over the
// preconstructed graph, returning the sorted terms at the final state and
// the number of nodes visited.
func (g *Graph) Query(a symtab.Sym) (answers []symtab.Sym, visited int) {
	seen := make(map[node]bool)
	stack := []node{{g.m.Start, a}}
	seen[stack[0]] = true
	out := make(map[symtab.Sym]bool)
	if g.m.Start == g.m.Final {
		out[a] = true
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nn := range g.adj[n] {
			if !seen[nn] {
				seen[nn] = true
				stack = append(stack, nn)
				if nn.q == g.m.Final {
					out[nn.u] = true
				}
			}
		}
	}
	answers = make([]symtab.Sym, 0, len(out))
	for s := range out {
		answers = append(answers, s)
	}
	slices.Sort(answers)
	return answers, len(seen)
}
