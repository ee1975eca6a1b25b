// Package counting implements the counting method [Bancilhon, Maier,
// Sagiv, Ullman 1986; Saccà, Zaniolo 1986] for linear equations of the
// shape p = e0 ∪ e1·p·e2 and queries p(a, Y).
//
// The method indexes the magic set by distance from the query constant
// ("counting"): the upward pass computes the level sets S_i = e1^i(a); the
// flat pass computes F_i = e0(S_i); and the downward pass consumes the
// counts in reverse, D_h = F_h, D_{i} = e2(D_{i+1}) ∪ F_i, so every
// down-step is taken once per level rather than once per (level, start)
// pair. The answer is D_0.
//
// The paper notes that its graph-traversal algorithm has time bounds
// identical to counting — "the iterative construction of the automata
// EM(p,i) effectively includes the process of counting" — which is what
// experiment E1 verifies. The package also provides the reverse-counting
// variant, which runs the same scheme on the reversed equation (levels
// measured from the answer side); it is evaluable only with the second
// argument bound, so for p(a, Y) it enumerates candidate sources — the
// behavior the comparison table penalizes on one of the samples.
//
// For cyclic data the level sets never become empty; Levels bounds the
// pass as in Marchetti-Spaccamela et al., with the m·n accessible-node
// bound computed from D1/D2 closures.
package counting

import (
	"slices"

	"chainlog/internal/chaineval"
	"chainlog/internal/equations"
	"chainlog/internal/expr"
	"chainlog/internal/paper/regimage"
	"chainlog/internal/symtab"
)

// Stats reports the work performed.
type Stats struct {
	// Levels is the number of upward levels explored (h).
	Levels int
	// UpSize, FlatSize, DownSize are the summed sizes of the S_i, F_i and
	// D_i sets — the method's node-at-a-time work measure.
	UpSize, FlatSize, DownSize int
	// BoundStopped reports that the cyclic m·n bound ended the upward
	// pass.
	BoundStopped bool
}

// Evaluate runs the counting method for the equation shape and query
// constant. maxLevels > 0 overrides the automatic cyclic bound.
func Evaluate(shape equations.LinearShape, src chaineval.Source, a symtab.Sym, maxLevels int) ([]symtab.Sym, Stats) {
	e0 := regimage.New(shape.E0, src)
	e1 := regimage.New(shape.E1, src)
	e2 := regimage.New(shape.E2, src)

	var stats Stats
	limit := maxLevels
	if limit <= 0 {
		// m·n accessible-node bound (only needed when the data is
		// cyclic; on acyclic data the upward pass empties first).
		d1 := e1.Closure([]symtab.Sym{a})
		d2 := e2.Closure(e0.ImageSet(d1))
		limit = max(1, len(d1)) * max(1, len(d2))
	}

	// Upward pass: S_0 = {a}, S_{i+1} = e1(S_i).
	var levels [][]symtab.Sym
	cur := []symtab.Sym{a}
	for len(cur) > 0 {
		levels = append(levels, cur)
		stats.UpSize += len(cur)
		if len(levels) > limit {
			stats.BoundStopped = true
			break
		}
		cur = e1.ImageSet(cur)
	}
	stats.Levels = len(levels)

	// Flat pass: F_i = e0(S_i).
	flats := make([][]symtab.Sym, len(levels))
	for i, s := range levels {
		flats[i] = e0.ImageSet(s)
		stats.FlatSize += len(flats[i])
	}

	// Downward pass, deepest level first: D = e2(D) ∪ F_i.
	var down []symtab.Sym
	for i := len(levels) - 1; i >= 0; i-- {
		down = union(e2.ImageSet(down), flats[i])
		stats.DownSize += len(down)
	}
	return down, stats
}

// EvaluateReverse runs the reverse-counting variant for p(a, Y): the
// level structure is built from the answer side by reversing the
// equation (p = e0ʳ ∪ e2ʳ·p·e1ʳ over the inverse relations). Without a
// bound second argument the method must seed the reversed upward pass
// with every candidate answer-side node — the whole range of e0 reachable
// downward — which is what makes it asymmetric to counting on asymmetric
// samples.
func EvaluateReverse(shape equations.LinearShape, src chaineval.Source, a symtab.Sym, maxLevels int) ([]symtab.Sym, Stats) {
	rev := equations.LinearShape{
		E0: expr.Reverse(shape.E0, nil),
		E1: expr.Reverse(shape.E2, nil),
		E2: expr.Reverse(shape.E1, nil),
	}
	// Candidate answer nodes: everything reachable from a through the
	// forward expressions (the potentially relevant range).
	e1 := regimage.New(shape.E1, src)
	e0 := regimage.New(shape.E0, src)
	e2 := regimage.New(shape.E2, src)
	d1 := e1.Closure([]symtab.Sym{a})
	candidates := e2.Closure(e0.ImageSet(d1))

	var answers []symtab.Sym
	var stats Stats
	for _, c := range candidates {
		// Reverse query: does a belong to pʳ(c, ·)?
		res, s := Evaluate(rev, src, c, maxLevels)
		stats.Levels = max(stats.Levels, s.Levels)
		stats.UpSize += s.UpSize
		stats.FlatSize += s.FlatSize
		stats.DownSize += s.DownSize
		for _, v := range res {
			if v == a {
				answers = append(answers, c)
				break
			}
		}
	}
	return answers, stats
}

func union(a, b []symtab.Sym) []symtab.Sym {
	set := make(map[symtab.Sym]bool, len(a)+len(b))
	for _, s := range a {
		set[s] = true
	}
	for _, s := range b {
		set[s] = true
	}
	out := make([]symtab.Sym, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sortSyms(out)
	return out
}

func sortSyms(s []symtab.Sym) {
	slices.Sort(s)
}
