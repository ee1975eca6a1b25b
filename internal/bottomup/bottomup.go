// Package bottomup implements the two completely general evaluation
// baselines the paper's introduction discusses: naive evaluation and
// seminaive evaluation. Both compute the full fixpoint of a safe Datalog
// program bottom-up; they apply to any arity, any recursion shape and any
// binding pattern, which is exactly why — as the paper argues — they
// consult many potentially irrelevant facts when the query carries
// bindings.
//
// The package also owns the one rule-body join of the repository
// (join.go): Compile fixes a body's greedy bound-first order once, with
// comparison built-ins placed where their variables become bound, and
// Join.Run enumerates its solutions by index nested loops. The fixpoints
// here drive it with the base, derived and delta stores as tuple source;
// ivm, qsqnet and binchain drive the same join with sources of their own.
package bottomup

import (
	"context"
	"slices"
	"strconv"

	"chainlog/internal/ast"
	"chainlog/internal/ctxpoll"
	"chainlog/internal/edb"
	"chainlog/internal/symtab"
)

// Stats reports the work a fixpoint run performed.
type Stats struct {
	// Iterations is the number of fixpoint rounds.
	Iterations int
	// Firings is the number of successful rule instantiations (the
	// paper's "duplication of work" counts repeated firings on the same
	// data; naive evaluation re-fires, seminaive mostly does not).
	Firings int64
	// Derived is the number of distinct facts derived.
	Derived int64
}

// Naive computes the fixpoint by re-evaluating every rule against the
// whole current database until nothing new appears.
func Naive(prog *ast.Program, base *edb.Store) (*edb.Store, Stats, error) {
	return NaiveCtx(nil, prog, base)
}

// NaiveCtx is Naive under a context, polled between rule evaluations
// and, by the join, every few thousand candidate tuples, so a deadline
// aborts the fixpoint even inside one large join. A nil ctx never
// cancels.
func NaiveCtx(ctx context.Context, prog *ast.Program, base *edb.Store) (*edb.Store, Stats, error) {
	ev, err := newEvaluator(ctx, prog, base)
	if err != nil {
		return nil, Stats{}, err
	}
	for grew := true; grew; {
		ev.stats.Iterations++
		grew = false
		for ri, r := range prog.Rules {
			if err := ctxpoll.Err(ctx); err != nil {
				return nil, ev.stats, err
			}
			pred := r.Head.Pred
			err := ev.evalRule(ri, -1, nil, func(head []symtab.Sym) {
				if ev.insert(pred, head) {
					grew = true
				}
			})
			if err != nil {
				return nil, ev.stats, err
			}
		}
	}
	return ev.idb, ev.stats, nil
}

// Seminaive computes the fixpoint with delta relations: each round only
// instantiates rules through at least one fact derived in the previous
// round, avoiding the re-firing naive evaluation performs.
func Seminaive(prog *ast.Program, base *edb.Store) (*edb.Store, Stats, error) {
	return SeminaiveCtx(nil, prog, base)
}

// SeminaiveCtx is Seminaive under a context, polled like NaiveCtx.
func SeminaiveCtx(ctx context.Context, prog *ast.Program, base *edb.Store) (*edb.Store, Stats, error) {
	ev, err := newEvaluator(ctx, prog, base)
	if err != nil {
		return nil, Stats{}, err
	}
	derived := ev.derived
	// emitInto inserts rule heads, recording the new ones in delta.
	emitInto := func(pred string, delta *edb.Store) func([]symtab.Sym) {
		return func(head []symtab.Sym) {
			if ev.insert(pred, head) {
				delta.Insert(pred, head...)
			}
		}
	}

	// Round 0: rules whose bodies mention no derived predicate.
	delta := edb.NewStore(base.SymTab())
	for ri, r := range prog.Rules {
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
		if err := ev.evalRule(ri, -1, nil, emitInto(r.Head.Pred, delta)); err != nil {
			return nil, ev.stats, err
		}
	}
	ev.stats.Iterations++

	for delta.Size() > 0 {
		ev.stats.Iterations++
		next := edb.NewStore(base.SymTab())
		for ri, r := range prog.Rules {
			if err := ctxpoll.Err(ctx); err != nil {
				return nil, ev.stats, err
			}
			for j, l := range r.Body {
				if l.IsBuiltin() || !derived[l.Pred] {
					continue
				}
				dl := delta.Relation(l.Pred)
				if dl.Len() == 0 {
					continue
				}
				if err := ev.evalRule(ri, j, delta, emitInto(r.Head.Pred, next)); err != nil {
					return nil, ev.stats, err
				}
			}
		}
		delta = next
	}
	return ev.idb, ev.stats, nil
}

// Answer filters the derived relation for the query's bound arguments and
// returns the sorted projections onto its free positions.
func Answer(idb *edb.Store, q ast.Query) [][]symtab.Sym {
	r := idb.Relation(q.Pred)
	if r == nil {
		return nil
	}
	var mask uint32
	var bound []symtab.Sym
	var freeIdx []int
	for i, a := range q.Args {
		if a.IsVar() {
			freeIdx = append(freeIdx, i)
		} else {
			mask |= 1 << uint(i)
			bound = append(bound, a.Const)
		}
	}
	// Deduplicate projections onto the free variables, honoring repeated
	// variables in the query (e.g. p(X, X)).
	varPos := make(map[string]int)
	var out [][]symtab.Sym
	seen := make(map[string]bool)
	r.MatchEach(mask, bound, func(tuple []symtab.Sym) {
		for k := range varPos {
			delete(varPos, k)
		}
		row := make([]symtab.Sym, 0, len(freeIdx))
		ok := true
		for _, i := range freeIdx {
			v := q.Args[i].Var
			if prev, dup := varPos[v]; dup {
				if tuple[prev] != tuple[i] {
					ok = false
					break
				}
				continue
			}
			varPos[v] = i
			row = append(row, tuple[i])
		}
		if !ok {
			return
		}
		key := Key(row)
		if !seen[key] {
			seen[key] = true
			out = append(out, row)
		}
	})
	sortRows(out)
	return out
}

type evaluator struct {
	prog    *ast.Program
	base    *edb.Store
	idb     *edb.Store
	derived map[string]bool
	// bodies holds each rule's compiled body, nil for a rule that can
	// never fire.
	bodies []*Body
	join   *Join
	stats  Stats
	// deltaPos and delta pin one body position to the delta store for
	// the rule evaluation in progress (deltaPos -1: none).
	deltaPos int
	delta    *edb.Store
}

func newEvaluator(ctx context.Context, prog *ast.Program, base *edb.Store) (*evaluator, error) {
	if _, err := prog.Arities(); err != nil {
		return nil, err
	}
	ev := &evaluator{
		prog:    prog,
		base:    base,
		idb:     edb.NewStore(base.SymTab()),
		derived: prog.DerivedSet(),
		join:    NewJoin(ctx, base.SymTab()),
	}
	for _, r := range prog.Rules {
		ev.bodies = append(ev.bodies, CompileRule(r, nil, -1, nil))
	}
	return ev, nil
}

func (ev *evaluator) insert(pred string, args []symtab.Sym) bool {
	r := ev.idb.Relation(pred)
	if r != nil && r.Contains(args) {
		return false
	}
	ev.idb.Insert(pred, args...)
	ev.stats.Derived++
	return true
}

// candidates is the evaluator's tuple source: the delta store at the
// pinned position, the derived store for derived predicates, the base
// store otherwise.
func (ev *evaluator) candidates(s *Step, bound []symtab.Sym, y *Yield) {
	store := ev.base
	switch {
	case s.Pos == ev.deltaPos:
		store = ev.delta
	case ev.derived[s.Pred]:
		store = ev.idb
	}
	store.Relation(s.Pred).MatchEach(s.Mask, bound, y.Tuple)
}

// evalRule fires rule ri once per substitution satisfying its body —
// every one counts as a firing — and passes the instantiated head to
// emit. deltaPos >= 0 pins that body literal to the delta store.
func (ev *evaluator) evalRule(ri, deltaPos int, delta *edb.Store, emit func(head []symtab.Sym)) error {
	b := ev.bodies[ri]
	if b == nil {
		return nil
	}
	ev.deltaPos, ev.delta = deltaPos, delta
	var head []symtab.Sym
	return ev.join.Run(b, b.Frame(nil), 0, ev.candidates, func(frame []symtab.Sym, _ int) {
		head = Project(head[:0], b.Head, frame)
		ev.stats.Firings++
		emit(head)
	})
}

// Compare evaluates a comparison built-in over two constants: numerically
// when both render as integers, lexicographically otherwise.
func Compare(st *symtab.Table, op ast.BuiltinOp, a, b symtab.Sym) bool {
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

func sortRows(rows [][]symtab.Sym) {
	slices.SortFunc(rows, func(a, b []symtab.Sym) int {
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return int(a[k]) - int(b[k])
			}
		}
		return len(a) - len(b)
	})
}
