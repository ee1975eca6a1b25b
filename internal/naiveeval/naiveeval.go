// Package naiveeval is the differential-testing oracle: a deliberately
// textbook semi-naive bottom-up Datalog evaluator with none of the
// machinery the engine under test relies on. It shares only the ast and
// symtab packages (the common vocabulary); facts live in plain slices
// with a map for dedup, joins are nested loops without indexes, and
// nothing is cached across calls. Every answer is recomputed from
// scratch, so an oracle query after any interleaving of asserts and
// retracts reflects exactly the current fact multiset — which is what
// makes it a trustworthy reference for the chain engine's live-update
// path (see the FuzzDifferential harness in the root package).
package naiveeval

import (
	"slices"
	"strconv"

	"chainlog/internal/ast"
	"chainlog/internal/symtab"
)

// Facts is the oracle's extensional state: per-predicate tuple lists
// with set semantics. The zero value is not ready; use NewFacts.
type Facts struct {
	tuples map[string][][]symtab.Sym
	seen   map[string]map[string]bool
}

// NewFacts returns an empty fact set.
func NewFacts() *Facts {
	return &Facts{
		tuples: make(map[string][][]symtab.Sym),
		seen:   make(map[string]map[string]bool),
	}
}

func factKey(args []symtab.Sym) string {
	b := make([]byte, 0, len(args)*5)
	for _, a := range args {
		v := uint32(a)
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), ',')
	}
	return string(b)
}

// Assert adds a fact, reporting whether it was new.
func (f *Facts) Assert(pred string, args []symtab.Sym) bool {
	s := f.seen[pred]
	if s == nil {
		s = make(map[string]bool)
		f.seen[pred] = s
	}
	k := factKey(args)
	if s[k] {
		return false
	}
	s[k] = true
	f.tuples[pred] = append(f.tuples[pred], slices.Clone(args))
	return true
}

// Retract removes a fact, reporting whether it was present.
func (f *Facts) Retract(pred string, args []symtab.Sym) bool {
	s := f.seen[pred]
	k := factKey(args)
	if s == nil || !s[k] {
		return false
	}
	delete(s, k)
	ts := f.tuples[pred]
	for i, t := range ts {
		if factKey(t) == k {
			f.tuples[pred] = append(ts[:i], ts[i+1:]...)
			break
		}
	}
	return true
}

// Len returns the total fact count.
func (f *Facts) Len() int {
	n := 0
	for _, ts := range f.tuples {
		n += len(ts)
	}
	return n
}

// Clone returns an independent copy.
func (f *Facts) Clone() *Facts {
	out := NewFacts()
	for pred, ts := range f.tuples {
		for _, t := range ts {
			out.Assert(pred, t)
		}
	}
	return out
}

// Eval computes the full fixpoint of prog over base by textbook
// semi-naive iteration and returns the derived facts (base facts
// excluded). Rule bodies are evaluated literal-by-literal in written
// order with plain nested-loop scans — no indexes, no ordering
// heuristics — so the evaluation shares no shortcuts with the engine it
// checks. Built-in comparisons are evaluated once all their variables
// are bound. Non-range-restricted rules derive nothing (an unbound head
// variable never binds), matching the engine's bottom-up baselines.
func Eval(prog *ast.Program, base *Facts, st *symtab.Table) *Facts {
	derived := prog.DerivedSet()
	idb := NewFacts()

	// lookup resolves a body literal's tuples: delta-pinned, derived, or
	// base, depending on the round.
	all := func(pred string) [][]symtab.Sym {
		if derived[pred] {
			return idb.tuples[pred]
		}
		return base.tuples[pred]
	}

	// evalRule enumerates substitutions for r's body, with literal
	// deltaIdx (when >= 0) ranging over delta instead of the full
	// relation, and calls emit for each instantiated head.
	evalRule := func(r ast.Rule, deltaIdx int, delta *Facts, emit func([]symtab.Sym)) {
		var step func(i int, subst map[string]symtab.Sym)
		step = func(i int, subst map[string]symtab.Sym) {
			if i == len(r.Body) {
				// Re-validate every built-in under the final substitution:
				// one whose variables were unbound when it was reached in
				// written order was deferred here (evaluating it early is
				// only a pruning optimization).
				for _, l := range r.Body {
					if !l.IsBuiltin() {
						continue
					}
					lv, lok := termVal(l.Args[0], subst)
					rv, rok := termVal(l.Args[1], subst)
					if !lok || !rok || !compare(st, l.Op, lv, rv) {
						return
					}
				}
				head := make([]symtab.Sym, len(r.Head.Args))
				for j, a := range r.Head.Args {
					if a.IsVar() {
						v, ok := subst[a.Var]
						if !ok {
							return
						}
						head[j] = v
					} else {
						head[j] = a.Const
					}
				}
				emit(head)
				return
			}
			l := r.Body[i]
			if l.IsBuiltin() {
				lv, lok := termVal(l.Args[0], subst)
				rv, rok := termVal(l.Args[1], subst)
				if lok && rok && !compare(st, l.Op, lv, rv) {
					return // prune; final validation happens at emit time
				}
				step(i+1, subst)
				return
			}
			var ts [][]symtab.Sym
			if i == deltaIdx {
				ts = delta.tuples[l.Pred]
			} else {
				ts = all(l.Pred)
			}
			// want[j] is the value every matching tuple holds at argument
			// j when fixed[j]: the constant, or the binding the variable
			// had before the scan. A tuple that differs there is skipped
			// before the substitution is read.
			want := make([]symtab.Sym, len(l.Args))
			fixed := make([]bool, len(l.Args))
			for j, a := range l.Args {
				if a.IsVar() {
					want[j], fixed[j] = subst[a.Var]
				} else {
					want[j], fixed[j] = a.Const, true
				}
			}
			// bound names the variables a tuple bound, unbound again
			// before the next tuple; one buffer serves every tuple.
			bound := make([]string, 0, len(l.Args))
		scan:
			for _, t := range ts {
				if len(t) != len(l.Args) {
					continue
				}
				for j, f := range fixed {
					if f && t[j] != want[j] {
						continue scan
					}
				}
				bound = bound[:0]
				ok := true
				for j, a := range l.Args {
					if a.IsVar() {
						if v, has := subst[a.Var]; has {
							if v != t[j] {
								ok = false
								break
							}
						} else {
							subst[a.Var] = t[j]
							bound = append(bound, a.Var)
						}
					} else if a.Const != t[j] {
						ok = false
						break
					}
				}
				if ok {
					step(i+1, subst)
				}
				for _, v := range bound {
					delete(subst, v)
				}
			}
		}
		step(0, make(map[string]symtab.Sym))
	}

	// Round 0: rules without derived body literals.
	delta := NewFacts()
	for _, r := range prog.Rules {
		hasDerived := false
		for _, l := range r.Body {
			if !l.IsBuiltin() && derived[l.Pred] {
				hasDerived = true
				break
			}
		}
		if hasDerived {
			continue
		}
		evalRule(r, -1, nil, func(head []symtab.Sym) {
			if idb.Assert(r.Head.Pred, head) {
				delta.Assert(r.Head.Pred, head)
			}
		})
	}
	for delta.Len() > 0 {
		next := NewFacts()
		for _, r := range prog.Rules {
			for j, l := range r.Body {
				if l.IsBuiltin() || !derived[l.Pred] {
					continue
				}
				if len(delta.tuples[l.Pred]) == 0 {
					continue
				}
				evalRule(r, j, delta, func(head []symtab.Sym) {
					if idb.Assert(r.Head.Pred, head) {
						next.Assert(r.Head.Pred, head)
					}
				})
			}
		}
		delta = next
	}
	return idb
}

// termVal resolves a term under a substitution.
func termVal(t ast.Term, subst map[string]symtab.Sym) (symtab.Sym, bool) {
	if t.IsVar() {
		v, ok := subst[t.Var]
		return v, ok
	}
	return t.Const, true
}

// compare mirrors the engine's built-in semantics: numeric when both
// constants render as integers, lexicographic otherwise. Implemented
// locally so the oracle does not import the engine's evaluators.
func compare(st *symtab.Table, op ast.BuiltinOp, a, b symtab.Sym) bool {
	an, aerr := strconv.Atoi(st.Name(a))
	bn, berr := strconv.Atoi(st.Name(b))
	var cmp int
	if aerr == nil && berr == nil {
		switch {
		case an < bn:
			cmp = -1
		case an > bn:
			cmp = 1
		}
	} else {
		sa, sb := st.Name(a), st.Name(b)
		switch {
		case sa < sb:
			cmp = -1
		case sa > sb:
			cmp = 1
		}
	}
	switch op {
	case ast.OpLT:
		return cmp < 0
	case ast.OpLE:
		return cmp <= 0
	case ast.OpGT:
		return cmp > 0
	case ast.OpGE:
		return cmp >= 0
	case ast.OpEQ:
		return cmp == 0
	case ast.OpNE:
		return cmp != 0
	}
	return false
}

// Answer evaluates the query against prog and base from scratch: full
// fixpoint, then filter by the query's bound arguments and project onto
// its free variables (first occurrence per variable, rows violating
// repeated-variable equality dropped), deduplicated and sorted.
func Answer(prog *ast.Program, base *Facts, st *symtab.Table, q ast.Query) [][]symtab.Sym {
	derived := prog.DerivedSet()
	var ts [][]symtab.Sym
	if derived[q.Pred] {
		ts = Eval(prog, base, st).tuples[q.Pred]
	} else {
		ts = base.tuples[q.Pred]
	}
	varPos := map[string]int{}
	var keep []int
	for i, a := range q.Args {
		if a.IsVar() {
			if _, ok := varPos[a.Var]; !ok {
				varPos[a.Var] = i
				keep = append(keep, i)
			}
		}
	}
	seen := map[string]bool{}
	var out [][]symtab.Sym
	for _, t := range ts {
		if len(t) != len(q.Args) {
			continue
		}
		ok := true
		for i, a := range q.Args {
			if a.IsVar() {
				if t[varPos[a.Var]] != t[i] {
					ok = false
					break
				}
			} else if a.Const != t[i] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		row := make([]symtab.Sym, 0, len(keep))
		for _, i := range keep {
			row = append(row, t[i])
		}
		k := factKey(row)
		if !seen[k] {
			seen[k] = true
			out = append(out, row)
		}
	}
	slices.SortFunc(out, func(a, b []symtab.Sym) int {
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				return int(a[i]) - int(b[i])
			}
		}
		return len(a) - len(b)
	})
	return out
}
