// Package naiveeval is the differential-testing oracle: a deliberately
// textbook semi-naive bottom-up Datalog evaluator with none of the
// machinery the engine under test relies on. It shares only the ast and
// symtab packages (the common vocabulary); facts live in plain slices
// with maps for dedup, a join probes a hash index that each Eval builds
// from those slices and drops on return, and nothing is cached across
// calls. Every answer is recomputed from
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
	rels map[string]*relation
}

// relation is one predicate's facts: its tuples in the order they came,
// and the same tuples as a set.
type relation struct {
	tuples [][]symtab.Sym
	set
}

// NewFacts returns an empty fact set.
func NewFacts() *Facts {
	return &Facts{rels: make(map[string]*relation)}
}

// tuples returns pred's tuples.
func (f *Facts) tuples(pred string) [][]symtab.Sym {
	if r := f.rels[pred]; r != nil {
		return r.tuples
	}
	return nil
}

// set is a set of tuples. A tuple of one or two arguments — nearly every
// fact — is its own key, any other is keyed by its arguments spelled out.
type set struct {
	ones  map[symtab.Sym]bool
	pairs map[[2]symtab.Sym]bool
	other map[string]bool
}

func factKey(args []symtab.Sym) string {
	b := make([]byte, 0, len(args)*5)
	for _, a := range args {
		v := uint32(a)
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), ',')
	}
	return string(b)
}

// add adds t, reporting whether it was new.
func (s *set) add(t []symtab.Sym) bool {
	switch len(t) {
	case 1:
		return insert(&s.ones, t[0])
	case 2:
		return insert(&s.pairs, [2]symtab.Sym{t[0], t[1]})
	}
	return insert(&s.other, factKey(t))
}

// remove removes t, reporting whether it was there.
func (s *set) remove(t []symtab.Sym) bool {
	switch len(t) {
	case 1:
		return drop(s.ones, t[0])
	case 2:
		return drop(s.pairs, [2]symtab.Sym{t[0], t[1]})
	}
	return drop(s.other, factKey(t))
}

// insert adds k to the set *m, making it on first use, and reports
// whether k was new.
func insert[K comparable](m *map[K]bool, k K) bool {
	if *m == nil {
		*m = make(map[K]bool)
	}
	n := len(*m)
	(*m)[k] = true
	return len(*m) > n
}

// drop removes k from m and reports whether it was there.
func drop[K comparable](m map[K]bool, k K) bool {
	n := len(m)
	delete(m, k)
	return len(m) < n
}

// Assert adds a fact, reporting whether it was new.
func (f *Facts) Assert(pred string, args []symtab.Sym) bool {
	r := f.rels[pred]
	if r == nil {
		r = new(relation)
		f.rels[pred] = r
	}
	if !r.add(args) {
		return false
	}
	r.tuples = append(r.tuples, slices.Clone(args))
	return true
}

// Retract removes a fact, reporting whether it was present.
func (f *Facts) Retract(pred string, args []symtab.Sym) bool {
	r := f.rels[pred]
	if r == nil || !r.remove(args) {
		return false
	}
	for i, t := range r.tuples {
		if slices.Equal(t, args) {
			r.tuples = append(r.tuples[:i], r.tuples[i+1:]...)
			break
		}
	}
	return true
}

// Len returns the total fact count.
func (f *Facts) Len() int {
	n := 0
	for _, r := range f.rels {
		n += len(r.tuples)
	}
	return n
}

// Clone returns an independent copy.
func (f *Facts) Clone() *Facts {
	out := NewFacts()
	for pred, r := range f.rels {
		for _, t := range r.tuples {
			out.Assert(pred, t)
		}
	}
	return out
}

// Eval computes the full fixpoint of prog over base by textbook
// semi-naive iteration and returns the derived facts (base facts
// excluded). Rule bodies are evaluated literal-by-literal in written
// order — no ordering heuristics — each literal scanning the tuples that
// hold its first bound argument's value, found in a hash index this call
// builds and drops, so the evaluation shares no shortcuts with the engine
// it checks. Built-in comparisons are evaluated once all their variables
// are bound. Non-range-restricted rules derive nothing (an unbound head
// variable never binds), matching the engine's bottom-up baselines.
func Eval(prog *ast.Program, base *Facts, st *symtab.Table) *Facts {
	derived := prog.DerivedSet()
	idb := NewFacts()

	// index maps the tuples of one predicate of one fact set by their
	// value at one argument position. It is built on first use and catches
	// up with the tuples appended since (the derived facts grow during the
	// fixpoint, and nothing here removes one).
	type index struct {
		n  int // the tuples indexed so far
		by map[symtab.Sym][][]symtab.Sym
	}
	type indexKey struct {
		facts *Facts
		pred  string
		pos   int
	}
	indexes := map[indexKey]*index{}
	// probe returns the tuples of pred in f that hold v at pos.
	probe := func(f *Facts, pred string, pos int, v symtab.Sym) [][]symtab.Sym {
		k := indexKey{f, pred, pos}
		ix := indexes[k]
		if ix == nil {
			ix = &index{by: make(map[symtab.Sym][][]symtab.Sym)}
			indexes[k] = ix
		}
		ts := f.tuples(pred)
		for _, t := range ts[ix.n:] {
			if pos < len(t) {
				ix.by[t[pos]] = append(ix.by[t[pos]], t)
			}
		}
		ix.n = len(ts)
		return ix.by[v]
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
			// The literal reads delta-pinned, derived or base facts,
			// depending on the round.
			f := base
			if i == deltaIdx {
				f = delta
			} else if derived[l.Pred] {
				f = idb
			}
			// want[j] is the value every matching tuple holds at argument
			// j when fixed[j]: the constant, or the binding the variable
			// had before the scan. The scan reads only the tuples that
			// hold it at the first such argument, and skips one that
			// differs at another before the substitution is read.
			want := make([]symtab.Sym, len(l.Args))
			fixed := make([]bool, len(l.Args))
			for j, a := range l.Args {
				if a.IsVar() {
					want[j], fixed[j] = subst[a.Var]
				} else {
					want[j], fixed[j] = a.Const, true
				}
			}
			ts := f.tuples(l.Pred)
			if j := slices.Index(fixed, true); j >= 0 {
				ts = probe(f, l.Pred, j, want[j])
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
					if fixed[j] {
						continue // checked above
					}
					if v, has := subst[a.Var]; has {
						if v != t[j] {
							ok = false
							break
						}
					} else {
						subst[a.Var] = t[j]
						bound = append(bound, a.Var)
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
				if len(delta.tuples(l.Pred)) == 0 {
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
		ts = Eval(prog, base, st).tuples(q.Pred)
	} else {
		ts = base.tuples(q.Pred)
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
	var seen set
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
		if seen.add(row) {
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
