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
	"sync"

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
// body in bound-first order, the relation each body literal reads and
// the positions of its derived literals, each of which a delta round
// pins in turn. It holds no facts and is safe for concurrent runs; Each
// runs on evaluators it pools.
type Program struct {
	rules []rule
	// preds lists the derived predicates, arity their arities, and
	// derived maps each to its place there; a run keeps one relation and
	// one slot window per entry.
	preds   []string
	arity   []int
	derived map[string]int
	// bases lists the base predicates the bodies read; a run resolves
	// them in the base store once.
	bases []string
	pool  sync.Pool // of *evaluator
}

type rule struct {
	head int // the head's predicate, as an index into preds
	// body is nil for a rule that can never fire (CompileRule).
	body *Body
	// rels maps a body atom's position to its relation: k for preds[k],
	// ^k for bases[k].
	rels []int
	// deltas are the positions of the derived atoms.
	deltas []int
}

// CompileProgram compiles prog's rules.
func CompileProgram(prog *ast.Program) (*Program, error) {
	ar, err := prog.Arities()
	if err != nil {
		return nil, err
	}
	p := &Program{derived: map[string]int{}}
	p.pool.New = func() any { return newEvaluator(p, nil) }
	for _, r := range prog.Rules {
		if _, ok := p.derived[r.Head.Pred]; !ok {
			p.derived[r.Head.Pred] = len(p.preds)
			p.preds = append(p.preds, r.Head.Pred)
			p.arity = append(p.arity, ar[r.Head.Pred])
		}
	}
	bases := map[string]int{}
	for _, r := range prog.Rules {
		cr := rule{head: p.derived[r.Head.Pred], body: CompileRule(r, nil, -1, nil), rels: make([]int, len(r.Body))}
		for j, l := range r.Body {
			if l.IsBuiltin() {
				continue
			}
			k, derived := p.derived[l.Pred]
			if derived {
				cr.deltas = append(cr.deltas, j)
			} else {
				if _, ok := bases[l.Pred]; !ok {
					bases[l.Pred] = len(p.bases)
					p.bases = append(p.bases, l.Pred)
				}
				k = ^bases[l.Pred]
			}
			cr.rels[j] = k
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
	ev := newEvaluator(p, base.SymTab())
	ev.start(ctx, base)
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

// Seminaive is the seminaive fixpoint under a context, polled like
// Naive, on an evaluator of its own: the derived relations it returns
// are the run's.
func (p *Program) Seminaive(ctx context.Context, base *edb.Store) (*edb.Store, Stats, error) {
	ev := newEvaluator(p, base.SymTab())
	ev.start(ctx, base)
	if err := ev.seminaive(); err != nil {
		return nil, ev.stats, err
	}
	return ev.idb, ev.stats, nil
}

// Each is Seminaive on a pooled evaluator, handing f — as
// edb.Relation.MatchEach does — every derived tuple of pred whose mask
// columns equal bound. The tuple aliases the evaluator's scratch, which
// goes back to the pool when Each returns, so f must not keep it. A warm
// run neither grows a table nor rebuilds an index: it allocates nothing
// per fact.
func (p *Program) Each(ctx context.Context, base *edb.Store, pred string, mask uint32, bound []symtab.Sym, f func(tuple []symtab.Sym)) (Stats, error) {
	ev := p.pool.Get().(*evaluator)
	defer p.release(ev)
	ev.start(ctx, base)
	err := ev.seminaive()
	if k, ok := p.derived[pred]; ok && err == nil {
		ev.rels[k].MatchEach(mask, bound, f)
	}
	return ev.stats, err
}

// release empties ev's derived relations, keeping their storage and
// indexes, and returns ev to the pool. The base relations and the
// context are dropped so the pool pins neither a store nor a request.
func (p *Program) release(ev *evaluator) {
	for _, r := range ev.rels {
		r.Reset()
	}
	clear(ev.base)
	ev.join.reset(nil, nil)
	p.pool.Put(ev)
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

// evaluator is one fixpoint run over a compiled Program at a time.
type evaluator struct {
	p *Program
	// idb holds the derived relations, rels the same by their index in
	// p.preds, and base the run's base relations by their index in
	// p.bases (nil for one the store does not have).
	idb   *edb.Store
	rels  []*edb.Relation
	base  []*edb.Relation
	join  *Join
	stats Stats
	// pin is the body position a seminaive pass reads through the slot
	// window [lo, hi) of its relation, -1 before the first. wlo and whi
	// are the round's window of every derived relation.
	pin, lo, hi int
	wlo, whi    []int
	// rule is the one being evaluated, read by derive. frame and head are
	// scratch reused across evaluations; grew records that a head was new
	// (Naive's loop condition).
	rule        *rule
	frame, head []symtab.Sym
	grew        bool
	src         Source
	emit        func(frame []symtab.Sym, tag int)
}

// newEvaluator returns an evaluator with empty derived relations over
// the symbol table st; start readies it for a run.
func newEvaluator(p *Program, st *symtab.Table) *evaluator {
	n := len(p.preds)
	ev := &evaluator{p: p, idb: edb.NewStore(st), base: make([]*edb.Relation, len(p.bases)), join: NewJoin(nil, st),
		wlo: make([]int, n), whi: make([]int, n)}
	for k, pred := range p.preds {
		ev.rels = append(ev.rels, ev.idb.Ensure(pred, p.arity[k]))
	}
	ev.src, ev.emit = ev.candidates, ev.derive
	return ev
}

// start readies ev for a run over base under ctx.
func (ev *evaluator) start(ctx context.Context, base *edb.Store) {
	for k, pred := range ev.p.bases {
		ev.base[k] = base.Relation(pred)
	}
	ev.join.reset(ctx, base.SymTab())
	ev.stats, ev.pin = Stats{}, -1
}

// seminaive runs the seminaive fixpoint. Derived relations only grow and
// keep their tuples in arrival order, so the delta of a round is a slot
// window [lo, hi) of the relation itself: the tuples that arrived during
// the round before. A pass evaluates a rule's body with one derived
// literal pinned to its window; every other literal reads its relation
// as it stands, what the pass itself has derived so far included. Round
// 0 fires the rules with no derived body literal.
func (ev *evaluator) seminaive() error {
	p := ev.p
	for i := range p.rules {
		if r := &p.rules[i]; len(r.deltas) == 0 {
			if err := ev.fire(r); err != nil {
				return err
			}
		}
	}
	ev.stats.Iterations++

	// Each round's windows begin where the last round's ended.
	lo, hi := ev.wlo, ev.whi
	clear(hi)
	for {
		grew := false
		for k, r := range ev.rels {
			lo[k], hi[k] = hi[k], r.Len()
			grew = grew || lo[k] < hi[k]
		}
		if !grew {
			return nil
		}
		ev.stats.Iterations++
		for i := range p.rules {
			if err := ctxpoll.Err(ev.join.ctx); err != nil {
				return err
			}
			r := &p.rules[i]
			for _, pos := range r.deltas {
				k := r.rels[pos]
				if lo[k] == hi[k] {
					continue
				}
				ev.pin, ev.lo, ev.hi = pos, lo[k], hi[k]
				if err := ev.fire(r); err != nil {
					return err
				}
			}
		}
	}
}

// candidates is the evaluator's tuple source: the pass's window at the
// pinned position, the derived relation for a derived predicate, the
// base relation otherwise.
func (ev *evaluator) candidates(s *Step, bound []symtab.Sym, y *Yield) {
	switch k := ev.rule.rels[s.Pos]; {
	case s.Pos == ev.pin:
		ev.rels[k].MatchWindow(s.Mask, bound, ev.lo, ev.hi, y.Tuple)
	case k >= 0:
		ev.rels[k].MatchEach(s.Mask, bound, y.Tuple)
	default:
		if r := ev.base[^k]; r != nil {
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

// derive adds a solution's head. Nothing is ever removed from a derived
// relation, which is what makes a slot window a delta.
func (ev *evaluator) derive(frame []symtab.Sym, _ int) {
	ev.head = Project(ev.head[:0], ev.rule.body.Head, frame)
	ev.stats.Firings++
	if ev.rels[ev.rule.head].Insert(ev.head) {
		ev.stats.Derived++
		ev.grew = true
	}
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
