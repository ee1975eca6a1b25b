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
// intensional ones the answer table's index buckets — after memoizing
// the subquery the step opens — cut to the delta window at the pinned
// step.
package qsqnet

import (
	"context"
	"fmt"
	"sort"

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
}

// Net is the compiled query-subquery net for one program and one root
// adornment. It is immutable after Compile and safe for concurrent
// Eval calls, each of which builds its own tables.
type Net struct {
	pred    string
	adorn   string
	nodes   []*node
	byKey   map[string]*node
	derived map[string]bool
	arities map[string]int
	// ansMasks lists, per intensional predicate, the statically known
	// bound-argument masks with which rule bodies probe its answer
	// table; Eval registers a hash index per mask.
	ansMasks map[string][]uint32
	// preds is the sorted set of intensional predicates reachable from
	// the root, the iteration order of the semi-naive rounds.
	preds []string
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
	// subKey gives, per body position of an intensional literal, the
	// adorned input table its subqueries feed ("" elsewhere).
	subKey []string
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
	n := &Net{
		pred:     pred,
		adorn:    adornment,
		byKey:    map[string]*node{},
		derived:  derived,
		arities:  arities,
		ansMasks: map[string][]uint32{},
	}
	maskSeen := map[string]map[uint32]bool{}
	predSeen := map[string]bool{}

	queue := []*node{{key: adornedKey(pred, adornment), pred: pred, adorn: adornment}}
	n.byKey[queue[0].key] = queue[0]
	for len(queue) > 0 {
		nd := queue[0]
		queue = queue[1:]
		n.nodes = append(n.nodes, nd)
		if !predSeen[nd.pred] {
			predSeen[nd.pred] = true
			n.preds = append(n.preds, nd.pred)
		}
		for _, r := range prog.RulesFor(nd.pred) {
			cr, subs, err := compileRule(r, nd.adorn, derived)
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
			for si := range cr.body.Steps {
				s := &cr.body.Steps[si]
				if cr.subKey[s.Pos] == "" {
					continue
				}
				if maskSeen[s.Pred] == nil {
					maskSeen[s.Pred] = map[uint32]bool{}
				}
				if !maskSeen[s.Pred][s.Mask] {
					maskSeen[s.Pred][s.Mask] = true
					n.ansMasks[s.Pred] = append(n.ansMasks[s.Pred], s.Mask)
				}
			}
			for _, sub := range subs {
				if n.byKey[sub.key] == nil {
					n.byKey[sub.key] = sub
					queue = append(queue, sub)
				}
			}
		}
	}
	sort.Strings(n.preds)
	return n, nil
}

func adornedKey(pred, adorn string) string { return pred + "^" + adorn }

// compileRule compiles a rule under a head adornment. It returns nil (no
// error) for rules bottom-up evaluation could never fire (see
// bottomup.CompileRule). subs lists the adorned nodes of the rule's
// intensional steps.
func compileRule(r ast.Rule, adorn string, derived map[string]bool) (*crule, []*node, error) {
	if len(r.Head.Args) != len(adorn) {
		return nil, nil, fmt.Errorf("qsqnet: rule head %s/%d under adornment %s", r.Head.Pred, len(r.Head.Args), adorn)
	}
	var boundHead []ast.Term
	for i, c := range adorn {
		switch c {
		case 'b':
			boundHead = append(boundHead, r.Head.Args[i])
		case 'f':
			// Free head position: nothing to bind.
		default:
			return nil, nil, fmt.Errorf("qsqnet: bad adornment %q", adorn)
		}
	}
	body := bottomup.CompileRule(r, boundHead, -1, derived)
	if body == nil {
		return nil, nil, nil
	}
	cr := &crule{body: body, inBind: body.Refs(boundHead), subKey: make([]string, len(r.Body))}
	var subs []*node
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
		cr.subKey[s.Pos] = adornedKey(s.Pred, string(b))
		subs = append(subs, &node{key: cr.subKey[s.Pos], pred: s.Pred, adorn: string(b)})
	}
	return cr, subs, nil
}

// inputTable memoizes the subqueries of one adorned predicate: tuples
// of bound-argument values, deduplicated, with a processed-prefix mark.
type inputTable struct {
	rows [][]symtab.Sym
	seen map[string]bool
	mark int
}

func (t *inputTable) add(row []symtab.Sym) bool {
	k := bottomup.Key(row)
	if t.seen[k] {
		return false
	}
	t.seen[k] = true
	t.rows = append(t.rows, append([]symtab.Sym(nil), row...))
	return true
}

// answerTable memoizes the derived facts of one intensional predicate,
// in arrival order (the delta windows of the semi-naive rounds), with
// one hash index per statically registered probe mask.
type answerTable struct {
	rows [][]symtab.Sym
	seen map[string]bool
	idx  map[uint32]map[string][]int
	mark int // answers below mark have been propagated
}

func newAnswerTable(masks []uint32) *answerTable {
	t := &answerTable{seen: map[string]bool{}, idx: map[uint32]map[string][]int{}}
	for _, m := range masks {
		if m != 0 {
			t.idx[m] = map[string][]int{}
		}
	}
	return t
}

func (t *answerTable) add(row []symtab.Sym) bool {
	k := bottomup.Key(row)
	if t.seen[k] {
		return false
	}
	t.seen[k] = true
	i := len(t.rows)
	t.rows = append(t.rows, append([]symtab.Sym(nil), row...))
	for mask, buckets := range t.idx {
		bk := packMasked(t.rows[i], mask)
		buckets[bk] = append(buckets[bk], i)
	}
	return true
}

// lookup returns the indexes of rows matching the bound values under
// mask (all rows for mask 0).
func (t *answerTable) lookup(mask uint32, bound []symtab.Sym) []int {
	if mask == 0 {
		idxs := make([]int, len(t.rows))
		for i := range idxs {
			idxs[i] = i
		}
		return idxs
	}
	buckets, ok := t.idx[mask]
	if !ok {
		// Unregistered mask (root filtering only): linear scan.
		var out []int
		for i, r := range t.rows {
			if matchesMask(r, mask, bound) {
				out = append(out, i)
			}
		}
		return out
	}
	return buckets[bottomup.Key(bound)]
}

func matchesMask(row []symtab.Sym, mask uint32, bound []symtab.Sym) bool {
	k := 0
	for i := range row {
		if mask&(1<<uint(i)) != 0 {
			if row[i] != bound[k] {
				return false
			}
			k++
		}
	}
	return true
}

// packMasked packs the masked positions of a full row — the same key
// bottomup.Key computes from the corresponding bound vector.
func packMasked(row []symtab.Sym, mask uint32) string {
	b := make([]byte, 0, 4*len(row))
	for i, s := range row {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		v := uint32(s)
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// evalState is one Eval call's mutable state over an immutable Net.
type evalState struct {
	net   *Net
	store *edb.Store
	join  *bottomup.Join
	in    map[string]*inputTable
	ans   map[string]*answerTable
	stats Stats
	// The rule evaluation in progress, read by candidates and fire: its
	// rule, its head's answer table and, when pin >= 0, the body position
	// restricted to the answer rows in [pinLo, pinHi) — the semi-naive
	// delta window. frame and head are scratch reused across evaluations.
	cur          *crule
	tbl          *answerTable
	pin          int
	pinLo, pinHi int
	frame, head  []symtab.Sym
	src          bottomup.Source
	emit         func(frame []symtab.Sym, tag int)
}

// Eval answers the net's goal for one bound-argument vector (one value
// per 'b' in the root adornment, in position order), against the live
// extensional store. It returns every full tuple of the root predicate
// consistent with the bound arguments. The context is polled
// throughout; on cancellation the error wraps context.Cause.
func (n *Net) Eval(ctx context.Context, store *edb.Store, bound []symtab.Sym) ([][]symtab.Sym, Stats, error) {
	nb := 0
	for _, c := range n.adorn {
		if c == 'b' {
			nb++
		}
	}
	if len(bound) != nb {
		return nil, Stats{}, fmt.Errorf("qsqnet: goal %s^%s expects %d bound arguments, got %d", n.pred, n.adorn, nb, len(bound))
	}
	e := &evalState{
		net:   n,
		store: store,
		join:  bottomup.NewJoin(ctx, store.SymTab()),
		in:    map[string]*inputTable{},
		ans:   map[string]*answerTable{},
	}
	e.src, e.emit = e.candidates, e.fire
	for _, nd := range n.nodes {
		e.in[nd.key] = &inputTable{seen: map[string]bool{}}
	}
	for _, p := range n.preds {
		if e.ans[p] == nil {
			e.ans[p] = newAnswerTable(n.ansMasks[p])
		}
	}
	e.addInput(adornedKey(n.pred, n.adorn), bound)

	if err := e.run(ctx); err != nil {
		return nil, e.stats, fmt.Errorf("qsqnet: evaluation canceled: %w", err)
	}

	// Project the root predicate's answers onto the goal: the shared
	// answer table can hold tuples derived for recursive subqueries
	// with other bindings, so filter by the goal's own bound values.
	var rootMask uint32
	for i, c := range n.adorn {
		if c == 'b' {
			rootMask |= 1 << uint(i)
		}
	}
	tbl := e.ans[n.pred]
	var out [][]symtab.Sym
	for _, row := range tbl.rows {
		if rootMask == 0 || matchesMask(row, rootMask, bound) {
			out = append(out, row)
		}
	}
	return out, e.stats, nil
}

// addInput memoizes a subquery tuple, returning whether it was new.
func (e *evalState) addInput(key string, row []symtab.Sym) bool {
	t := e.in[key]
	if t == nil {
		// A key outside the compiled net can only be the root; treat as
		// a bug loudly rather than dropping work silently.
		panic("qsqnet: subquery for uncompiled node " + key)
	}
	if t.add(row) {
		e.stats.Subqueries++
		return true
	}
	return false
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
		// Snapshot this round's delta windows.
		type window struct{ lo, hi int }
		deltas := map[string]window{}
		any := false
		for _, p := range e.net.preds {
			t := e.ans[p]
			deltas[p] = window{t.mark, len(t.rows)}
			if t.mark < len(t.rows) {
				any = true
			}
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
			it := e.in[nd.key]
			for _, cr := range nd.rules {
				for si := range cr.body.Steps {
					s := &cr.body.Steps[si]
					if cr.subKey[s.Pos] == "" {
						continue
					}
					w := deltas[s.Pred]
					if w.lo == w.hi {
						continue
					}
					for ri := 0; ri < it.mark; ri++ {
						if err := e.evalRule(nd, cr, it.rows[ri], s.Pos, w.lo, w.hi); err != nil {
							return err
						}
					}
				}
			}
		}
		// Advance the marks past the propagated windows; answers added
		// during this round form the next delta.
		for _, p := range e.net.preds {
			e.ans[p].mark = deltas[p].hi
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
			it := e.in[nd.key]
			for it.mark < len(it.rows) {
				changed = true
				row := it.rows[it.mark]
				it.mark++
				for _, cr := range nd.rules {
					if err := e.evalRule(nd, cr, row, -1, 0, 0); err != nil {
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
// intensional literal at that body position to the answer rows in
// [pinLo, pinHi).
func (e *evalState) evalRule(nd *node, cr *crule, input []symtab.Sym, pin, pinLo, pinHi int) error {
	// Bind the head's bound positions from the input tuple; a repeated
	// variable or head constant constrains the input.
	e.frame = cr.body.Frame(e.frame)
	if !bottomup.Bind(e.frame, cr.inBind, input) {
		return nil
	}
	e.cur, e.tbl, e.pin, e.pinLo, e.pinHi = cr, e.ans[nd.pred], pin, pinLo, pinHi
	return e.join.Run(cr.body, e.frame, 0, e.src, e.emit)
}

// fire adds one instantiated head to the current rule's answer table.
func (e *evalState) fire(frame []symtab.Sym, _ int) {
	e.head = bottomup.Project(e.head[:0], e.cur.body.Head, frame)
	e.stats.Firings++
	if e.tbl.add(e.head) {
		e.stats.Answers++
	}
}

// candidates is the net's tuple source for bottomup's join: the live
// store for an extensional step; for an intensional one, after
// memoizing the subquery the step opens (its answers are computed by
// the node it feeds), the answer table's index bucket, cut to the delta
// window when the step is the pinned one.
func (e *evalState) candidates(s *bottomup.Step, bound []symtab.Sym, y *bottomup.Yield) {
	sub := e.cur.subKey[s.Pos]
	if sub == "" {
		e.store.Relation(s.Pred).MatchEach(s.Mask, bound, y.Tuple)
		return
	}
	e.addInput(sub, bound)
	tbl := e.ans[s.Pred]
	if s.Pos != e.pin {
		for _, i := range tbl.lookup(s.Mask, bound) {
			y.Tuple(tbl.rows[i])
		}
		return
	}
	if s.Mask == 0 {
		for i := e.pinLo; i < e.pinHi; i++ {
			y.Tuple(tbl.rows[i])
		}
		return
	}
	// Index buckets hold row positions in ascending order, so the window
	// is a contiguous bucket slice.
	idxs := tbl.lookup(s.Mask, bound)
	for _, i := range idxs[sort.SearchInts(idxs, e.pinLo):] {
		if i >= e.pinHi {
			break
		}
		y.Tuple(tbl.rows[i])
	}
}
