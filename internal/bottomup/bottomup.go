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
// here drive it with the base and derived stores as tuple source, a delta
// being a slot window of a derived relation; ivm, qsqnet and binchain
// drive the same join with sources of their own.
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
	// Lookups and Retrieved are the run's probes of the base store and
	// the tuples they returned: its own tally, exact whatever else reads
	// the store meanwhile.
	Lookups, Retrieved int64
}

// Program is a rule set compiled once for the fixpoints: per rule its
// body in bound-first order and the positions of its derived literals,
// each of which a delta round pins in turn. It holds no facts, is
// immutable and safe for concurrent runs.
type Program struct {
	rules []rule
	// preds lists the derived predicates and derived maps each to its
	// place there; a run keeps one slot window per entry.
	preds   []string
	derived map[string]int
}

type rule struct {
	head string
	// body is nil for a rule that can never fire (CompileRule).
	body   *Body
	deltas []deltaLit
}

// deltaLit is a derived literal of a rule's body: its position there and
// its predicate, as an index into Program.preds.
type deltaLit struct{ pos, pred int }

// CompileProgram compiles prog's rules.
func CompileProgram(prog *ast.Program) (*Program, error) {
	if _, err := prog.Arities(); err != nil {
		return nil, err
	}
	p := &Program{derived: map[string]int{}}
	derive := func(pred string) {
		if _, ok := p.derived[pred]; !ok {
			p.derived[pred] = len(p.preds)
			p.preds = append(p.preds, pred)
		}
	}
	for _, r := range prog.Rules {
		derive(r.Head.Pred)
	}
	for _, r := range prog.Rules {
		cr := rule{head: r.Head.Pred, body: CompileRule(r, nil, -1, nil)}
		for j, l := range r.Body {
			if pi, ok := p.derived[l.Pred]; ok && !l.IsBuiltin() {
				cr.deltas = append(cr.deltas, deltaLit{pos: j, pred: pi})
			}
		}
		p.rules = append(p.rules, cr)
	}
	return p, nil
}

// Naive computes the fixpoint by re-evaluating every rule against the
// whole current database until nothing new appears.
func Naive(prog *ast.Program, base *edb.Store) (*edb.Store, Stats, error) {
	return NaiveCtx(nil, prog, base)
}

// NaiveCtx compiles prog and runs Program.Naive.
func NaiveCtx(ctx context.Context, prog *ast.Program, base *edb.Store) (*edb.Store, Stats, error) {
	p, err := CompileProgram(prog)
	if err != nil {
		return nil, Stats{}, err
	}
	return p.Naive(ctx, base)
}

// Naive is the naive fixpoint under a context, polled between rule
// evaluations and, by the join, every few thousand candidate tuples, so a
// deadline aborts the fixpoint even inside one large join. A nil ctx
// never cancels.
func (p *Program) Naive(ctx context.Context, base *edb.Store) (*edb.Store, Stats, error) {
	ev := newEvaluator(ctx, p, base)
	for ev.grew = true; ev.grew; {
		ev.stats.Iterations++
		ev.grew = false
		for i := range p.rules {
			if err := ctxpoll.Err(ctx); err != nil {
				return nil, ev.stats, err
			}
			if err := ev.fire(&p.rules[i]); err != nil {
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

// SeminaiveCtx compiles prog and runs Program.Seminaive.
func SeminaiveCtx(ctx context.Context, prog *ast.Program, base *edb.Store) (*edb.Store, Stats, error) {
	p, err := CompileProgram(prog)
	if err != nil {
		return nil, Stats{}, err
	}
	return p.Seminaive(ctx, base)
}

// Seminaive is the seminaive fixpoint under a context, polled like Naive.
// Derived relations only grow and keep their tuples in arrival order, so
// the delta of a round is a slot window [lo, hi) of the relation itself:
// the tuples that arrived during the round before. A pass evaluates a
// rule's body with one derived literal pinned to its window; every other
// literal reads its relation as it stands, what the pass itself has
// derived so far included. Round 0 fires the rules with no derived body
// literal.
func (p *Program) Seminaive(ctx context.Context, base *edb.Store) (*edb.Store, Stats, error) {
	ev := newEvaluator(ctx, p, base)
	for i := range p.rules {
		if r := &p.rules[i]; len(r.deltas) == 0 {
			if err := ev.fire(r); err != nil {
				return nil, ev.stats, err
			}
		}
	}
	ev.stats.Iterations++

	// Each round's windows begin where the last round's ended.
	lo, hi := make([]int, len(p.preds)), make([]int, len(p.preds))
	for {
		grew := false
		for i, pred := range p.preds {
			lo[i], hi[i] = hi[i], ev.idb.Relation(pred).Len()
			grew = grew || lo[i] < hi[i]
		}
		if !grew {
			return ev.idb, ev.stats, nil
		}
		ev.stats.Iterations++
		for i := range p.rules {
			if err := ctxpoll.Err(ctx); err != nil {
				return nil, ev.stats, err
			}
			r := &p.rules[i]
			for _, d := range r.deltas {
				if lo[d.pred] == hi[d.pred] {
					continue
				}
				ev.pin, ev.lo, ev.hi = d.pos, lo[d.pred], hi[d.pred]
				if err := ev.fire(r); err != nil {
					return nil, ev.stats, err
				}
			}
		}
	}
}

// Answer filters the derived relation for the query's bound arguments and
// returns the sorted projections onto its free variables, a repeated
// variable (p(X, X)) keeping the tuples whose columns agree. A matching
// tuple is determined by its row — the other columns are the bound values
// or repeat a kept one — so distinct tuples give distinct rows.
func Answer(idb *edb.Store, q ast.Query) [][]symtab.Sym {
	r := idb.Relation(q.Pred)
	if r == nil {
		return nil
	}
	var mask uint32
	var bound []symtab.Sym
	var keep []int  // the column of each free variable's first occurrence
	var eq [][2]int // a repeated variable: the two columns must agree
	first := make(map[string]int)
	for i, a := range q.Args {
		switch j, seen := first[a.Var]; {
		case !a.IsVar():
			mask |= 1 << uint(i)
			bound = append(bound, a.Const)
		case seen:
			eq = append(eq, [2]int{j, i})
		default:
			first[a.Var] = i
			keep = append(keep, i)
		}
	}
	var out [][]symtab.Sym
	r.MatchEach(mask, bound, func(tuple []symtab.Sym) {
		for _, e := range eq {
			if tuple[e[0]] != tuple[e[1]] {
				return
			}
		}
		row := make([]symtab.Sym, len(keep))
		for k, i := range keep {
			row[k] = tuple[i]
		}
		out = append(out, row)
	})
	sortRows(out)
	return out
}

// evaluator is one fixpoint run over a compiled Program.
type evaluator struct {
	p     *Program
	base  *edb.Store
	idb   *edb.Store
	join  *Join
	stats Stats
	// pin is the body position a seminaive pass reads through the slot
	// window [lo, hi) of its relation, -1 before the first.
	pin, lo, hi int
	// rule is the one being evaluated, read by derive. frame and head are
	// scratch reused across evaluations; grew records that a head was new
	// (Naive's loop condition).
	rule        *rule
	frame, head []symtab.Sym
	grew        bool
	src         Source
	emit        func(frame []symtab.Sym, tag int)
}

func newEvaluator(ctx context.Context, p *Program, base *edb.Store) *evaluator {
	ev := &evaluator{p: p, base: base, idb: edb.NewStore(base.SymTab()), join: NewJoin(ctx, base.SymTab()), pin: -1}
	ev.src, ev.emit = ev.candidates, ev.derive
	return ev
}

// insert adds a derived fact. Nothing is ever removed from idb, which is
// what makes a slot window a delta.
func (ev *evaluator) insert(pred string, args []symtab.Sym) {
	if ev.idb.Insert(pred, args...) {
		ev.stats.Derived++
		ev.grew = true
	}
}

// candidates is the evaluator's tuple source: the pass's window at the
// pinned position, the derived store for derived predicates, the base
// store otherwise.
func (ev *evaluator) candidates(s *Step, bound []symtab.Sym, y *Yield) {
	switch _, derived := ev.p.derived[s.Pred]; {
	case s.Pos == ev.pin:
		ev.idb.Relation(s.Pred).MatchWindow(s.Mask, bound, ev.lo, ev.hi, y.Tuple)
	case derived:
		ev.idb.Relation(s.Pred).MatchEach(s.Mask, bound, y.Tuple)
	default:
		if r := ev.base.Relation(s.Pred); r != nil {
			ev.stats.Lookups++
			ev.stats.Retrieved += int64(r.MatchEach(s.Mask, bound, y.Tuple))
		}
	}
}

// fire evaluates r's body, deriving r's head once per solution — every
// one counts as a firing.
func (ev *evaluator) fire(r *rule) error {
	if r.body == nil {
		return nil
	}
	ev.rule, ev.frame = r, r.body.Frame(ev.frame)
	return ev.join.Run(r.body, ev.frame, 0, ev.src, ev.emit)
}

func (ev *evaluator) derive(frame []symtab.Sym, _ int) {
	ev.head = Project(ev.head[:0], ev.rule.body.Head, frame)
	ev.stats.Firings++
	ev.insert(ev.rule.head, ev.head)
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
