// Package qsqnet implements Query-Subquery Net evaluation (Nguyen &
// Cao's QSQ-net formulation of QSQR) for arbitrary safe Datalog: a
// goal-directed, memoizing strategy that sits between the paper's
// chain traversal (fast, chain subset only) and whole-program
// bottom-up (general, binding-blind).
//
// The net is compiled once per (program, query adornment): one node
// per adorned intensional predicate, holding the predicate's rules
// with a fixed bound-first evaluation order, the statically known
// bound-argument mask of every body step, and — for intensional body
// steps — the adorned key of the subquery the step generates. Nodes
// are discovered by breadth-first search over (predicate, adornment)
// pairs from the query's own adornment, so only binding patterns the
// evaluation can actually reach are compiled; the set is finite
// (bounded by 2^arity per predicate) and the compiled Net depends only
// on the rules, never on the facts — it is the shareable part of a
// prepared plan.
//
// Evaluation memoizes two families of tables: input tables (one per
// adorned predicate, holding the bound-argument tuples of generated
// subqueries) and answer tables (one per intensional predicate,
// holding derived facts, shared across adornments — every entry is a
// true fact, so sharing only prunes repeated work). Termination is by
// subsumption under a fixed adornment: a subquery or answer equal to a
// memoized one is not reprocessed, and both table families are finite
// over the active domain. New answers propagate semi-naively: each
// round re-evaluates only (rule, input, delta-pinned step)
// combinations where the pinned intensional step ranges over the
// answers added since the previous round, so quiescent parts of the
// net cost nothing.
//
// Rule bodies are ordered and joined by bottomup's rule-body join
// (bottomup/join.go), compiled with the adornment's bound head variables
// bound on entry and derived atoms deferred on ties. The net supplies
// only the tuple source: the live store for extensional steps; for
// intensional ones the answer table (an edb.Table, as the input tables
// are) — after memoizing the subquery the step opens — cut to the delta
// window, a slot range, at the pinned step.
package qsqnet

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"chainlog/internal/ast"
	"chainlog/internal/bottomup"
	"chainlog/internal/ctxpoll"
	"chainlog/internal/edb"
	"chainlog/internal/symtab"
)

// Stats reports the work one evaluation performed, in the same
// abstract units the other strategies use.
type Stats struct {
	// Rounds is the number of semi-naive propagation rounds.
	Rounds int
	// Subqueries is the number of distinct (adorned predicate, bound
	// tuple) subqueries memoized in the input tables.
	Subqueries int
	// Answers is the number of distinct facts derived into the answer
	// tables (across every predicate the goal touched).
	Answers int64
	// Firings is the number of successful rule instantiations.
	Firings int64
	// Lookups and Retrieved are the evaluation's probes of the extensional
	// store and the tuples they returned: its own share of the store's
	// counters, exact whatever else reads the store meanwhile.
	Lookups, Retrieved int64
}

// Net is the compiled query-subquery net for one program and one root
// adornment. It is immutable after Compile and safe for concurrent
// Eval calls, each of which builds its own tables.
type Net struct {
	pred  string
	adorn string
	// nodes[0] is the root goal's.
	nodes []*node
	// preds is the sorted set of intensional predicates reachable from
	// the root, the iteration order of the semi-naive rounds, and arity
	// their arities.
	preds []string
	arity []int
}

// Pred and Adornment identify the net's root goal.
func (n *Net) Pred() string      { return n.pred }
func (n *Net) Adornment() string { return n.adorn }

// Nodes reports the number of adorned-predicate nodes the net compiled
// (explain output).
func (n *Net) Nodes() int { return len(n.nodes) }

// node is one adorned intensional predicate: the input-table side of
// the net (subqueries with this binding pattern) plus the compiled
// rules that answer them.
type node struct {
	key   string
	pred  string
	adorn string
	rules []*crule
	// idx is the node's place in Net.nodes — its input table's in an
	// evaluation — and ans its predicate's in Net.preds, the answer
	// table's.
	idx, ans int
}

// crule is one rule compiled under a head adornment.
type crule struct {
	// body is the rule body in bottomup's fixed bound-first order, the
	// adornment's bound head variables bound on entry, derived atoms
	// deferred on ties.
	body *bottomup.Body
	// inBind maps the adornment's bound head positions onto the frame:
	// a slot to assign from the input tuple, or a constant the input
	// must equal.
	inBind []bottomup.Ref
	// sub gives, per body position of an intensional literal, the adorned
	// node its subqueries feed (nil elsewhere).
	sub []*node
}

// Compile builds the net for a query over pred with the given b/f
// adornment. The program's facts play no part: the net depends only on
// the rules, so a compiled net survives fact churn.
func Compile(prog *ast.Program, pred string, adornment string) (*Net, error) {
	arities, err := prog.Arities()
	if err != nil {
		return nil, fmt.Errorf("qsqnet: %w", err)
	}
	derived := prog.DerivedSet()
	if !derived[pred] {
		return nil, fmt.Errorf("qsqnet: %s is not an intensional predicate", pred)
	}
	if ar, ok := arities[pred]; ok && ar != len(adornment) {
		return nil, fmt.Errorf("qsqnet: adornment %s does not match %s/%d", adornment, pred, ar)
	}
	n := &Net{pred: pred, adorn: adornment}
	byKey := map[string]*node{}

	queue := []*node{{key: adornedKey(pred, adornment), pred: pred, adorn: adornment}}
	byKey[queue[0].key] = queue[0]
	for len(queue) > 0 {
		nd := queue[0]
		queue = queue[1:]
		nd.idx = len(n.nodes)
		n.nodes = append(n.nodes, nd)
		if !slices.Contains(n.preds, nd.pred) {
			n.preds = append(n.preds, nd.pred)
		}
		for _, r := range prog.RulesFor(nd.pred) {
			cr, err := compileRule(r, nd.adorn, derived)
			if err != nil {
				return nil, err
			}
			if cr == nil {
				// Dead rule (not range-restricted, or an unsatisfiable
				// built-in): derives nothing under bottom-up semantics,
				// so the net drops it for answer-equivalence with the
				// general strategies.
				continue
			}
			nd.rules = append(nd.rules, cr)
			for pos, sub := range cr.sub {
				if sub == nil {
					continue
				}
				if known := byKey[sub.key]; known != nil {
					cr.sub[pos] = known
				} else {
					byKey[sub.key] = sub
					queue = append(queue, sub)
				}
			}
		}
	}
	sort.Strings(n.preds)
	for _, p := range n.preds {
		n.arity = append(n.arity, arities[p])
	}
	for _, nd := range n.nodes {
		nd.ans = slices.Index(n.preds, nd.pred)
	}
	return n, nil
}

func adornedKey(pred, adorn string) string { return pred + "^" + adorn }

// compileRule compiles a rule under a head adornment. It returns nil (no
// error) for rules bottom-up evaluation could never fire (see
// bottomup.CompileRule). The nodes in sub are fresh; Compile replaces the
// ones it has met before.
func compileRule(r ast.Rule, adorn string, derived map[string]bool) (*crule, error) {
	if len(r.Head.Args) != len(adorn) {
		return nil, fmt.Errorf("qsqnet: rule head %s/%d under adornment %s", r.Head.Pred, len(r.Head.Args), adorn)
	}
	var boundHead []ast.Term
	for i, c := range adorn {
		switch c {
		case 'b':
			boundHead = append(boundHead, r.Head.Args[i])
		case 'f':
			// Free head position: nothing to bind.
		default:
			return nil, fmt.Errorf("qsqnet: bad adornment %q", adorn)
		}
	}
	body := bottomup.CompileRule(r, boundHead, -1, derived)
	if body == nil {
		return nil, nil
	}
	cr := &crule{body: body, inBind: body.Refs(boundHead), sub: make([]*node, len(r.Body))}
	for si := range body.Steps {
		s := &body.Steps[si]
		if !derived[s.Pred] {
			continue
		}
		b := make([]byte, len(s.Args))
		for i := range s.Args {
			if s.Mask&(1<<uint(i)) != 0 {
				b[i] = 'b'
			} else {
				b[i] = 'f'
			}
		}
		cr.sub[s.Pos] = &node{key: adornedKey(s.Pred, string(b)), pred: s.Pred, adorn: string(b)}
	}
	return cr, nil
}

// memo is one memoized table of an evaluation, rows in arrival order: the
// subqueries of an adorned predicate (tuples of bound-argument values),
// or the derived facts of an intensional predicate, probed under the
// statically known masks of the body steps that read it.
type memo struct {
	*edb.Table
	// mark is the processed prefix: subqueries below it have had their
	// full evaluation, answers below it have been propagated.
	mark int
	// lo, hi is an answer table's delta window in the current round.
	lo, hi int
}

// evalState is one Eval call's mutable state over an immutable Net.
type evalState struct {
	net   *Net
	store *edb.Store
	join  *bottomup.Join
	in    []memo // by node
	ans   []memo // by predicate
	stats Stats
	// The rule evaluation in progress, read by candidates and fire: its
	// rule, its head's answer table and, when pin >= 0, the body position
	// restricted to its answer table's delta window. frame and head are
	// scratch reused across evaluations.
	cur         *crule
	tbl         *memo
	pin         int
	frame, head []symtab.Sym
	src         bottomup.Source
	emit        func(frame []symtab.Sym, tag int)
}

// Eval answers the net's goal for one bound-argument vector (one value
// per 'b' in the root adornment, in position order), against the live
// extensional store. It returns every full tuple of the root predicate
// consistent with the bound arguments. The context is polled
// throughout; on cancellation the error wraps context.Cause.
func (n *Net) Eval(ctx context.Context, store *edb.Store, bound []symtab.Sym) ([][]symtab.Sym, Stats, error) {
	// rootMask selects the goal's bound positions.
	var rootMask uint32
	for i, c := range n.adorn {
		if c == 'b' {
			rootMask |= 1 << uint(i)
		}
	}
	if nb := bits.OnesCount32(rootMask); len(bound) != nb {
		return nil, Stats{}, fmt.Errorf("qsqnet: goal %s^%s expects %d bound arguments, got %d", n.pred, n.adorn, nb, len(bound))
	}
	e := &evalState{
		net:   n,
		store: store,
		join:  bottomup.NewJoin(ctx, store.SymTab()),
		in:    make([]memo, len(n.nodes)),
		ans:   make([]memo, len(n.preds)),
	}
	e.src, e.emit = e.candidates, e.fire
	for i, nd := range n.nodes {
		e.in[i].Table = edb.NewTable(strings.Count(nd.adorn, "b"))
	}
	for i, ar := range n.arity {
		e.ans[i].Table = edb.NewTable(ar)
	}
	e.addInput(n.nodes[0], bound)

	if err := e.run(ctx); err != nil {
		return nil, e.stats, fmt.Errorf("qsqnet: evaluation canceled: %w", err)
	}

	// Project the root predicate's answers onto the goal: the shared
	// answer table can hold tuples derived for recursive subqueries
	// with other bindings, so filter by the goal's own bound values. The
	// rows alias the table's arena, which nothing writes any more.
	var out [][]symtab.Sym
	tbl := &e.ans[n.nodes[0].ans]
	tbl.Each(rootMask, bound, 0, tbl.Rows(), func(row []symtab.Sym) { out = append(out, row) })
	return out, e.stats, nil
}

// addInput memoizes a subquery tuple.
func (e *evalState) addInput(nd *node, row []symtab.Sym) {
	if e.in[nd.idx].Add(row) {
		e.stats.Subqueries++
	}
}

// run drives the evaluation to fixpoint: process new subqueries, then
// propagate answer deltas through pinned re-evaluation, until a round
// adds nothing. It returns the context's error once a poll has seen it.
func (e *evalState) run(ctx context.Context) error {
	if err := e.processInputs(); err != nil {
		return err
	}
	for {
		e.stats.Rounds++
		if err := ctxpoll.Err(ctx); err != nil {
			return err
		}
		// Snapshot this round's delta windows: the answers that arrived
		// since the last one.
		any := false
		for i := range e.ans {
			t := &e.ans[i]
			t.lo, t.hi = t.mark, t.Rows()
			any = any || t.lo < t.hi
		}
		if !any {
			return nil
		}
		// Pinned passes: every (rule, processed input, intensional step
		// with a non-empty delta) combination re-evaluates with the
		// pinned step ranging over the delta only. Delta tuples are
		// already in the tables, so any derivation touching at least
		// one new answer is found with the other steps on full tables.
		for _, nd := range e.net.nodes {
			it := &e.in[nd.idx]
			for _, cr := range nd.rules {
				for si := range cr.body.Steps {
					s := &cr.body.Steps[si]
					if sub := cr.sub[s.Pos]; sub == nil || e.ans[sub.ans].lo == e.ans[sub.ans].hi {
						continue
					}
					for ri := 0; ri < it.mark; ri++ {
						if err := e.evalRule(nd, cr, it.Row(ri), s.Pos); err != nil {
							return err
						}
					}
				}
			}
		}
		// Advance the marks past the propagated windows; answers added
		// during this round form the next delta.
		for i := range e.ans {
			e.ans[i].mark = e.ans[i].hi
		}
		// Subqueries generated by the pinned passes get their full
		// evaluation before the next delta snapshot.
		if err := e.processInputs(); err != nil {
			return err
		}
	}
}

// processInputs drains every input table's unprocessed suffix, fully
// evaluating each node's rules for each new subquery tuple. New
// subqueries generated along the way extend the same tables and are
// drained in the same call.
func (e *evalState) processInputs() error {
	for changed := true; changed; {
		changed = false
		for _, nd := range e.net.nodes {
			it := &e.in[nd.idx]
			for ; it.mark < it.Rows(); it.mark++ {
				changed = true
				for _, cr := range nd.rules {
					if err := e.evalRule(nd, cr, it.Row(it.mark), -1); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// evalRule joins one compiled rule's body for one input tuple, adding
// the instantiated heads to the answer table. pin >= 0 restricts the
// intensional literal at that body position to its delta window.
func (e *evalState) evalRule(nd *node, cr *crule, input []symtab.Sym, pin int) error {
	// Bind the head's bound positions from the input tuple; a repeated
	// variable or head constant constrains the input.
	e.frame = cr.body.Frame(e.frame)
	if !bottomup.Bind(e.frame, cr.inBind, input) {
		return nil
	}
	e.cur, e.tbl, e.pin = cr, &e.ans[nd.ans], pin
	return e.join.Run(cr.body, e.frame, 0, e.src, e.emit)
}

// fire adds one instantiated head to the current rule's answer table.
func (e *evalState) fire(frame []symtab.Sym, _ int) {
	e.head = bottomup.Project(e.head[:0], e.cur.body.Head, frame)
	e.stats.Firings++
	if e.tbl.Add(e.head) {
		e.stats.Answers++
	}
}

// candidates is the net's tuple source for bottomup's join: the live
// store for an extensional step; for an intensional one, after
// memoizing the subquery the step opens (its answers are computed by
// the node it feeds), the answers present when the step opens, cut to
// the delta window when the step is the pinned one.
func (e *evalState) candidates(s *bottomup.Step, bound []symtab.Sym, y *bottomup.Yield) {
	sub := e.cur.sub[s.Pos]
	if sub == nil {
		if r := e.store.Relation(s.Pred); r != nil {
			e.stats.Lookups++
			e.stats.Retrieved += int64(r.MatchEach(s.Mask, bound, y.Tuple))
		}
		return
	}
	e.addInput(sub, bound)
	tbl := &e.ans[sub.ans]
	lo, hi := 0, tbl.Rows()
	if s.Pos == e.pin {
		lo, hi = tbl.lo, tbl.hi
	}
	tbl.Each(s.Mask, bound, lo, hi, y.Tuple)
}
