// Package hn implements the Henschen–Naqvi evaluation method [Henschen,
// Naqvi 1984] for linear equations p = e0 ∪ e1·p·e2 and queries p(a, Y),
// as characterized in the paper's comparison (Section 3):
//
//	answer = ⋃_{i ≥ 0} e2^i( e0( e1^i(a) ) )
//
// computed iteratively, set-at-a-time, with unary (node) intermediate
// results. The crucial difference from the paper's graph-traversal
// algorithm is that Henschen–Naqvi does not remember paths traversed in
// earlier iterations: the e2^i image is recomputed from scratch for every
// i. Sample (c) of Figure 7 makes this quadratic where the traversal
// algorithm — which shares the single automaton spine across iterations —
// stays linear (ablation A2).
package hn

import (
	"slices"

	"chainlog/internal/chaineval"
	"chainlog/internal/edb"
	"chainlog/internal/equations"
	"chainlog/internal/paper/regimage"
	"chainlog/internal/symtab"
)

// Stats reports the method's node-at-a-time work.
type Stats struct {
	// Iterations is the number of levels i explored.
	Iterations int
	// SetOps is the number of image applications performed.
	SetOps int
	// TermsTouched sums the sizes of all intermediate sets — the
	// duplicated down-walk work shows up here.
	TermsTouched int
	// BoundStopped reports that the cyclic bound ended the loop.
	BoundStopped bool
	// Counters is the extensional probes the run made, tallied by all
	// of its image evaluators.
	edb.Counters
}

// Evaluate runs Henschen–Naqvi. maxLevels > 0 overrides the automatic
// cyclic m·n bound.
func Evaluate(shape equations.LinearShape, src chaineval.Source, a symtab.Sym, maxLevels int) ([]symtab.Sym, Stats) {
	var stats Stats
	e0 := regimage.New(shape.E0, src, &stats.Counters)
	e1 := regimage.New(shape.E1, src, &stats.Counters)
	e2 := regimage.New(shape.E2, src, &stats.Counters)

	limit := maxLevels
	if limit <= 0 {
		d1 := e1.Closure([]symtab.Sym{a})
		d2 := e2.Closure(e0.ImageSet(d1))
		limit = max(1, len(d1)) * max(1, len(d2))
	}

	answers := make(map[symtab.Sym]bool)
	up := []symtab.Sym{a}
	for i := 0; len(up) > 0; i++ {
		if i >= limit {
			stats.BoundStopped = true
			break
		}
		stats.Iterations++
		stats.TermsTouched += len(up)

		// flat step, then i down steps recomputed from scratch — the
		// method's signature lack of memoization.
		cur := e0.ImageSet(up)
		stats.SetOps++
		stats.TermsTouched += len(cur)
		for k := 0; k < i && len(cur) > 0; k++ {
			cur = e2.ImageSet(cur)
			stats.SetOps++
			stats.TermsTouched += len(cur)
		}
		for _, v := range cur {
			answers[v] = true
		}

		up = e1.ImageSet(up)
		stats.SetOps++
	}

	out := make([]symtab.Sym, 0, len(answers))
	for s := range answers {
		out = append(out, s)
	}
	sortSyms(out)
	return out, stats
}

func sortSyms(s []symtab.Sym) {
	slices.Sort(s)
}
