// Package rel implements materialized binary relations and the
// relational-algebra operations of the paper — union, composition,
// reflexive transitive closure and inverse — together with a direct
// evaluator for expressions over them.
//
// These materialized operations are deliberately the "slow but obviously
// correct" semantics: they serve as the oracle in property tests, as the
// substrate of the Hunt-et-al. preconstruction baseline, and as the
// building blocks of the set-at-a-time comparison methods (Henschen–Naqvi,
// counting).
package rel

import (
	"slices"

	"chainlog/internal/expr"
	"chainlog/internal/symtab"
)

// Rel is a finite binary relation over interned symbols.
type Rel struct {
	fwd   map[symtab.Sym]map[symtab.Sym]bool
	pairs int
}

// New returns an empty relation.
func New() *Rel {
	return &Rel{fwd: make(map[symtab.Sym]map[symtab.Sym]bool)}
}

// FromPairs builds a relation from (u,v) pairs.
func FromPairs(pairs [][2]symtab.Sym) *Rel {
	r := New()
	for _, p := range pairs {
		r.Add(p[0], p[1])
	}
	return r
}

// Add inserts the pair (u, v). It reports whether the pair was new.
func (r *Rel) Add(u, v symtab.Sym) bool {
	m, ok := r.fwd[u]
	if !ok {
		m = make(map[symtab.Sym]bool)
		r.fwd[u] = m
	}
	if m[v] {
		return false
	}
	m[v] = true
	r.pairs++
	return true
}

// Has reports whether (u, v) is in the relation.
func (r *Rel) Has(u, v symtab.Sym) bool {
	return r != nil && r.fwd[u][v]
}

// Len returns the number of pairs.
func (r *Rel) Len() int {
	if r == nil {
		return 0
	}
	return r.pairs
}

// Each visits every pair in unspecified order.
func (r *Rel) Each(f func(u, v symtab.Sym)) {
	if r == nil {
		return
	}
	for u, m := range r.fwd {
		for v := range m {
			f(u, v)
		}
	}
}

// Pairs returns all pairs sorted lexicographically (deterministic output
// for tests and reports).
func (r *Rel) Pairs() [][2]symtab.Sym {
	out := make([][2]symtab.Sym, 0, r.Len())
	r.Each(func(u, v symtab.Sym) { out = append(out, [2]symtab.Sym{u, v}) })
	slices.SortFunc(out, func(a, b [2]symtab.Sym) int {
		if a[0] != b[0] {
			return int(a[0]) - int(b[0])
		}
		return int(a[1]) - int(b[1])
	})
	return out
}

// Successors returns the image of u, sorted.
func (r *Rel) Successors(u symtab.Sym) []symtab.Sym {
	if r == nil {
		return nil
	}
	return sortedSyms(r.fwd[u])
}

// Domain returns the sorted set of first components.
func (r *Rel) Domain() []symtab.Sym {
	set := make(map[symtab.Sym]bool)
	r.Each(func(u, _ symtab.Sym) { set[u] = true })
	return sortedSyms(set)
}

// Range returns the sorted set of second components.
func (r *Rel) Range() []symtab.Sym {
	set := make(map[symtab.Sym]bool)
	r.Each(func(_, v symtab.Sym) { set[v] = true })
	return sortedSyms(set)
}

// Field returns the sorted union of domain and range.
func (r *Rel) Field() []symtab.Sym {
	set := make(map[symtab.Sym]bool)
	r.Each(func(u, v symtab.Sym) { set[u] = true; set[v] = true })
	return sortedSyms(set)
}

// Equal reports whether two relations contain the same pairs.
func Equal(a, b *Rel) bool {
	if a.Len() != b.Len() {
		return false
	}
	eq := true
	a.Each(func(u, v symtab.Sym) {
		if !b.Has(u, v) {
			eq = false
		}
	})
	return eq
}

// Union returns a ∪ b.
func Union(a, b *Rel) *Rel {
	out := New()
	a.Each(func(u, v symtab.Sym) { out.Add(u, v) })
	b.Each(func(u, v symtab.Sym) { out.Add(u, v) })
	return out
}

// Compose returns a · b = {(x,z) | ∃y: a(x,y) ∧ b(y,z)}.
func Compose(a, b *Rel) *Rel {
	out := New()
	if a == nil || b == nil {
		return out
	}
	for x, ys := range a.fwd {
		for y := range ys {
			for z := range b.fwd[y] {
				out.Add(x, z)
			}
		}
	}
	return out
}

// Inverse returns a⁻¹.
func Inverse(a *Rel) *Rel {
	out := New()
	a.Each(func(u, v symtab.Sym) { out.Add(v, u) })
	return out
}

// Star returns the reflexive transitive closure of a, with reflexive
// pairs (x,x) for every x in universe (the paper's id relation is the
// identity on the active domain; callers supply it explicitly because a
// finite relation does not determine its universe).
func Star(a *Rel, universe []symtab.Sym) *Rel {
	out := New()
	for _, x := range universe {
		out.Add(x, x)
	}
	// BFS from each node of the universe plus each domain node of a.
	starts := make(map[symtab.Sym]bool)
	for _, x := range universe {
		starts[x] = true
	}
	a.Each(func(u, _ symtab.Sym) { starts[u] = true })
	for s := range starts {
		for _, v := range ReachableFrom(a, []symtab.Sym{s}) {
			out.Add(s, v)
		}
	}
	return out
}

// Plus returns the transitive (non-reflexive) closure of a.
func Plus(a *Rel) *Rel {
	return Compose(a, Star(a, nil))
}

// ReachableFrom returns the set of nodes reachable from starts via a
// (including the starts themselves), sorted. This is the set-at-a-time
// primitive of the Henschen–Naqvi style methods.
func ReachableFrom(a *Rel, starts []symtab.Sym) []symtab.Sym {
	seen := make(map[symtab.Sym]bool, len(starts))
	stack := append([]symtab.Sym(nil), starts...)
	for _, s := range starts {
		seen[s] = true
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if a == nil {
			continue
		}
		for v := range a.fwd[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return sortedSyms(seen)
}

// Image returns the image of the set xs under a, sorted.
func Image(a *Rel, xs []symtab.Sym) []symtab.Sym {
	set := make(map[symtab.Sym]bool)
	if a != nil {
		for _, x := range xs {
			for v := range a.fwd[x] {
				set[v] = true
			}
		}
	}
	return sortedSyms(set)
}

// Env resolves predicate names to materialized relations during
// expression evaluation.
type Env map[string]*Rel

// Eval materializes the relation denoted by e under env. Star uses the
// given universe for its reflexive part; predicates missing from env
// denote the empty relation. This is the oracle semantics for the whole
// module: every evaluator is property-tested against it.
func Eval(e expr.Expr, env Env, universe []symtab.Sym) *Rel {
	switch v := e.(type) {
	case expr.Pred:
		if r, ok := env[v.Name]; ok {
			return r
		}
		return New()
	case expr.Empty:
		return New()
	case expr.Ident:
		out := New()
		for _, x := range universe {
			out.Add(x, x)
		}
		return out
	case expr.Union:
		out := New()
		for _, t := range v.Terms {
			out = Union(out, Eval(t, env, universe))
		}
		return out
	case expr.Concat:
		out := Eval(v.Terms[0], env, universe)
		for _, t := range v.Terms[1:] {
			out = Compose(out, Eval(t, env, universe))
		}
		return out
	case expr.Star:
		return Star(Eval(v.E, env, universe), universe)
	case expr.Inverse:
		return Inverse(Eval(v.E, env, universe))
	}
	return New()
}

// SolveLinear computes the least solution of the single linear equation
// p = e0 ∪ e1·p·e2 by Kleene iteration over materialized relations. It is
// the oracle for the same-generation family of tests. maxIter bounds the
// iteration for cyclic data; it returns the fixpoint reached and whether
// the iteration converged.
func SolveLinear(e0, e1, e2 *Rel, maxIter int) (*Rel, bool) {
	cur := New()
	e0.Each(func(u, v symtab.Sym) { cur.Add(u, v) })
	for i := 0; i < maxIter; i++ {
		next := Union(e0, Compose(Compose(e1, cur), e2))
		if Equal(next, cur) {
			return cur, true
		}
		cur = next
	}
	return cur, false
}

func sortedSyms(set map[symtab.Sym]bool) []symtab.Sym {
	out := make([]symtab.Sym, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}
