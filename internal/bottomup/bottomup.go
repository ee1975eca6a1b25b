// Package bottomup is the repository's one semi-naive evaluator: the
// completely general side the paper sets its chain traversal against,
// which applies to any arity, any recursion shape and any binding
// pattern.
//
// A compiled Program is a list of nodes. A node is a derived predicate
// under one binding pattern: its head predicate, the arity of the input
// tuples that ask it for answers, and its rules, each knowing how an
// input binds its head and, per derived body literal, which node the
// literal's subqueries feed. A run memoizes inputs per node and derived
// facts per predicate in edb tables and propagates the facts round by
// round, a round's delta being a slot window of each derived relation.
// qsqnet compiles the QSQ net of a query into such a program.
// CompileProgram compiles the whole-program fixpoint, which is the net
// with nothing bound — one node per derived predicate, one empty input
// each, no subqueries — and so, as the paper argues, consults many
// irrelevant facts when the query carries bindings.
//
// The package also owns the one rule-body join of the repository
// (join.go): Compile fixes a body's greedy bound-first order once, with
// comparison built-ins placed where their variables become bound, and
// Join.Run enumerates its solutions depth first, pulling each step's
// candidates itself. An Open only opens them — an edb.Cursor
// over a relation or a slot window, a binary relation's neighbor list,
// or candidates it adds one by one with a tag — and the join reads them
// in a loop, so a firing costs a probe and an insert, not a callback per
// tuple. The evaluator holds two edb.Adj views of each base relation, so
// a binary probe with one column bound is a neighbor slice, and its
// derived tables dedupe a binary fact in one probe of the packed pair
// (edb.Table); ivm and binchain drive the same join with Opens of their
// own.
package bottomup

import (
	"context"
	"math"
	"slices"
	"strconv"
	"sync"

	"chainlog/internal/ast"
	"chainlog/internal/ctxpoll"
	"chainlog/internal/edb"
	"chainlog/internal/symtab"
)

// Stats reports the work one run performed.
type Stats struct {
	// Rounds is the number of semi-naive rounds: the one that evaluates
	// the first inputs, then one per delta, the last finding none.
	Rounds int
	// Subqueries is the number of distinct inputs the run memoized: a QSQ
	// net's goal and the subqueries it spawned, a fixpoint's one empty
	// input per node.
	Subqueries int
	// Firings is the number of successful rule instantiations (the
	// paper's "duplication of work" counts repeated firings on the same
	// data).
	Firings int64
	// Derived is the number of distinct facts derived.
	Derived int64
	// Lookups and Retrieved are the run's probes of the base store and
	// the tuples they returned: its own tally, exact whatever else reads
	// the store meanwhile.
	Lookups, Retrieved int64
}

// Node is a derived predicate under one binding pattern.
type Node struct {
	// Pred is the head predicate and Arity its arity.
	Pred  string
	Arity int
	// In is the arity of the node's input tuples: the head arguments an
	// input binds.
	In int
	// rules index the node's rules in Program.rules.
	rules []int
}

// Rule is one rule of a node, compiled for the node's input.
type Rule struct {
	// Node is the index of the rule's node.
	Node int
	// Body is the compiled body (CompileRule with no literal pinned, so
	// a step per body literal); a rule that can never fire has none and is
	// left out.
	Body *Body
	// In binds the head from an input tuple (Bind): empty when the node's
	// input is.
	In []Ref
	// Pins lists the body positions of the derived literals in the order
	// a round pins them to their deltas.
	Pins []int
	// Feeds maps a body position to the node the literal's subqueries
	// feed, -1 for none; nil when no literal feeds one.
	Feeds []int

	// Set by NewProgram: the head's derived relation, and per body
	// position its relation — k for preds[k], ^k for bases[k]. whole is
	// whether a new input evaluates the rule whole.
	head  int
	rels  []int
	whole bool
}

// Program is a list of nodes and their rules, compiled once. It holds no
// facts and is safe for concurrent runs; Each runs on evaluators it
// pools.
type Program struct {
	nodes []Node
	// rules are in the order a round evaluates them.
	rules []Rule
	// A run enters its input at nodes[:roots].
	roots int
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

// NewProgram links nodes and rules, which it takes over, into a program
// whose runs enter their input at the first roots nodes. A round
// evaluates the rules in the order given. A new input evaluates its
// node's rules whole, except a rule with a derived literal that feeds no
// node, which is entered only through its deltas: that is sound when its
// node's inputs all arrive before any fact is derived, as those of a root
// with an empty input do, and saves the round firing it twice. NewProgram
// panics, the compiler being at fault, when a pin is not a derived atom
// of its body or a rule entered only through its deltas belongs to any
// other node.
func NewProgram(nodes []Node, rules []Rule, roots int) *Program {
	p := &Program{nodes: nodes, rules: rules, roots: roots, derived: map[string]int{}}
	p.pool.New = func() any { return newEvaluator(p, nil) }
	for _, n := range p.nodes {
		if _, ok := p.derived[n.Pred]; !ok {
			p.derived[n.Pred] = len(p.preds)
			p.preds = append(p.preds, n.Pred)
			p.arity = append(p.arity, n.Arity)
		}
	}
	bases := map[string]int{}
	for i := range p.rules {
		r := &p.rules[i]
		n := &p.nodes[r.Node]
		n.rules = append(n.rules, i)
		r.head, r.rels = p.derived[n.Pred], make([]int, len(r.Body.Steps))
		pinned := 0
		for _, s := range r.Body.Steps {
			if s.Op != ast.OpNone {
				continue
			}
			k, derived := p.derived[s.Pred]
			if !derived {
				if _, ok := bases[s.Pred]; !ok {
					bases[s.Pred] = len(p.bases)
					p.bases = append(p.bases, s.Pred)
				}
				k = ^bases[s.Pred]
			} else if slices.Contains(r.Pins, s.Pos) {
				pinned++
			}
			r.rels[s.Pos] = k
		}
		if pinned != len(r.Pins) {
			panic("bottomup: a rule of " + n.Pred + " pins a literal that is not a derived atom of its body")
		}
		r.whole = true
		for _, pos := range r.Pins {
			r.whole = r.whole && r.Feeds != nil && r.Feeds[pos] >= 0
		}
		if !r.whole && (r.Node >= roots || n.In != 0) {
			panic("bottomup: a rule of " + n.Pred + " is entered only through its deltas, but its node's inputs may arrive late")
		}
	}
	return p
}

// CompileProgram compiles prog's rules into the whole-program fixpoint:
// one node per derived predicate with one empty input, rules in program
// order, each pinning its derived literals in body order.
func CompileProgram(prog *ast.Program) (*Program, error) {
	ar, err := prog.Arities()
	if err != nil {
		return nil, err
	}
	var nodes []Node
	node := map[string]int{}
	for _, r := range prog.Rules {
		if _, ok := node[r.Head.Pred]; !ok {
			node[r.Head.Pred] = len(nodes)
			nodes = append(nodes, Node{Pred: r.Head.Pred, Arity: ar[r.Head.Pred]})
		}
	}
	var rules []Rule
	for _, r := range prog.Rules {
		body := CompileRule(r, nil, -1, nil)
		if body == nil {
			continue
		}
		cr := Rule{Node: node[r.Head.Pred], Body: body}
		for j, l := range r.Body {
			if _, derived := node[l.Pred]; derived && !l.IsBuiltin() {
				cr.Pins = append(cr.Pins, j)
			}
		}
		rules = append(rules, cr)
	}
	return NewProgram(nodes, rules, len(nodes)), nil
}

// Nodes reports the number of nodes (explain output).
func (p *Program) Nodes() int { return len(p.nodes) }

// Seminaive computes the fixpoint of prog over base.
func Seminaive(prog *ast.Program, base *edb.Store) (*edb.Store, Stats, error) {
	return SeminaiveCtx(nil, prog, base)
}

// SeminaiveCtx compiles prog and runs it with Program.Seminaive.
func SeminaiveCtx(ctx context.Context, prog *ast.Program, base *edb.Store) (*edb.Store, Stats, error) {
	p, err := CompileProgram(prog)
	if err != nil {
		return nil, Stats{}, err
	}
	return p.Seminaive(ctx, base, nil)
}

// Seminaive runs p over base on an evaluator of its own, entering input
// at the root nodes, each cut to the node's input arity (so a fixpoint's
// roots take the empty tuple, whatever input is). The derived relations
// it returns are the run's. ctx is polled between rule evaluations and,
// by the join, every few thousand candidate tuples, so a deadline aborts
// the run even inside one large join. A nil ctx never cancels.
func (p *Program) Seminaive(ctx context.Context, base *edb.Store, input []symtab.Sym) (*edb.Store, Stats, error) {
	ev := newEvaluator(p, base.SymTab())
	ev.start(ctx, base, input)
	if err := ev.run(); err != nil {
		return nil, ev.stats, err
	}
	return ev.idb, ev.stats, nil
}

// Each is Seminaive on a pooled evaluator with bound as the input,
// handing f — as edb.Relation.MatchEach does — every derived tuple of
// pred whose mask columns equal bound. The tuple aliases the evaluator's
// scratch, which goes back to the pool when Each returns, so f must not
// keep it. A warm run neither grows a table nor rebuilds an index: it
// allocates nothing per fact.
func (p *Program) Each(ctx context.Context, base *edb.Store, pred string, mask uint32, bound []symtab.Sym, f func(tuple []symtab.Sym)) (Stats, error) {
	ev := p.pool.Get().(*evaluator)
	defer p.release(ev)
	ev.start(ctx, base, bound)
	err := ev.run()
	if k, ok := p.derived[pred]; ok && err == nil {
		ev.rels[k].MatchEach(mask, bound, nil, f)
	}
	return ev.stats, err
}

// release empties ev's tables, keeping their storage and indexes, and
// returns ev to the pool. The base relations and the context are dropped
// so the pool pins neither a store nor a request.
func (p *Program) release(ev *evaluator) {
	for _, r := range ev.rels {
		r.Reset()
	}
	for i := range ev.in {
		ev.in[i].Reset()
		ev.in[i].mark = 0
	}
	clear(ev.base)
	clear(ev.adj)
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
	r.MatchEach(mask, bound, nil, func(tuple []symtab.Sym) {
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

// evaluator is one run over a compiled Program at a time.
type evaluator struct {
	p *Program
	// idb holds the derived relations, rels the same by their index in
	// p.preds, in the inputs by node, base the run's base relations by
	// their index in p.bases (nil for one the store does not have) and adj
	// two views of each, its successors at 2k and its predecessors at
	// 2k+1, bound to the run's store as the chain engine's are.
	idb   *edb.Store
	rels  []*edb.Relation
	in    []input
	base  []*edb.Relation
	adj   []edb.Adj
	join  *Join
	stats Stats
	// lo and hi are the round's slot window of every derived relation.
	lo, hi []int
	// rule is the one being evaluated and pin the body position it reads
	// through its window, -1 for none; both are read by open and derive.
	// frame and head are scratch reused across evaluations.
	rule        *Rule
	pin         int
	frame, head []symtab.Sym
	open        Open
	emit        func(frame []symtab.Sym, tag int)
}

// input is a node's memoized inputs in arrival order; those below mark
// have had their whole evaluation.
type input struct {
	*edb.Table
	mark int
}

// newEvaluator returns an evaluator with empty tables over the symbol
// table st; start readies it for a run.
func newEvaluator(p *Program, st *symtab.Table) *evaluator {
	n := len(p.preds)
	ev := &evaluator{p: p, idb: edb.NewStore(st), base: make([]*edb.Relation, len(p.bases)),
		adj: make([]edb.Adj, 2*len(p.bases)), join: NewJoin(nil, st), lo: make([]int, n), hi: make([]int, n)}
	for k, pred := range p.preds {
		ev.rels = append(ev.rels, ev.idb.Ensure(pred, p.arity[k]))
	}
	for _, nd := range p.nodes {
		ev.in = append(ev.in, input{Table: edb.NewTable(nd.In)})
	}
	ev.open, ev.emit = ev.candidates, ev.derive
	return ev
}

// start readies ev for a run over base under ctx, entering input at the
// root nodes.
func (ev *evaluator) start(ctx context.Context, base *edb.Store, input []symtab.Sym) {
	for k, pred := range ev.p.bases {
		r := base.Relation(pred)
		ev.base[k], ev.adj[2*k], ev.adj[2*k+1] = r, r.Adj(false), r.Adj(true)
	}
	ev.join.reset(ctx, base.SymTab())
	ev.stats, ev.pin = Stats{}, -1
	clear(ev.hi)
	for n := range ev.p.roots {
		ev.enter(n, input[:ev.p.nodes[n].In])
	}
}

// enter memoizes an input of node n.
func (ev *evaluator) enter(n int, row []symtab.Sym) {
	if ev.in[n].Add(row) {
		ev.stats.Subqueries++
	}
}

// run drives the evaluation to its fixpoint. Derived relations only grow
// and keep their tuples in arrival order, so the delta of a round is a
// slot window [lo, hi) of the relation itself: the tuples that arrived
// since the round before. Each round first evaluates the new inputs, then
// takes the windows and makes one pass per (rule, derived literal with a
// non-empty window, entered input of the rule's node), the literal
// pinned to its window and every other literal reading its relation as
// it stands, what the round has derived so far included. It returns the
// context's error once a poll has seen it.
func (ev *evaluator) run() error {
	p := ev.p
	for {
		if err := ev.enterInputs(); err != nil {
			return err
		}
		ev.stats.Rounds++
		grew := false
		for k, r := range ev.rels {
			ev.lo[k], ev.hi[k] = ev.hi[k], r.Len()
			grew = grew || ev.lo[k] < ev.hi[k]
		}
		if !grew {
			return nil
		}
		for i := range p.rules {
			if err := ctxpoll.Err(ev.join.ctx); err != nil {
				return err
			}
			r := &p.rules[i]
			in := &ev.in[r.Node]
			for _, pos := range r.Pins {
				if k := r.rels[pos]; ev.lo[k] == ev.hi[k] {
					continue
				}
				for row := 0; row < in.mark; row++ {
					if err := ev.fire(r, in.Row(row), pos); err != nil {
						return err
					}
				}
			}
		}
	}
}

// enterInputs evaluates the rules of every node whole for each input
// they have not yet had, the inputs this adds included.
func (ev *evaluator) enterInputs() error {
	for more := true; more; {
		more = false
		for n := range ev.p.nodes {
			in := &ev.in[n]
			for ; in.mark < in.Rows(); in.mark++ {
				more = true
				for _, i := range ev.p.nodes[n].rules {
					if r := &ev.p.rules[i]; r.whole {
						if err := ev.fire(r, in.Row(in.mark), -1); err != nil {
							return err
						}
					}
				}
			}
		}
	}
	return nil
}

// fire evaluates r's body for one input of its node, the body position
// pin (if not -1) reading its window, deriving r's head once per
// solution — every one counts as a firing.
func (ev *evaluator) fire(r *Rule, input []symtab.Sym, pin int) error {
	ev.frame = r.Body.Frame(ev.frame)
	if !Bind(ev.frame, r.In, input) {
		return nil
	}
	ev.rule, ev.pin = r, pin
	return ev.join.Run(r.Body, ev.frame, 0, ev.open, ev.emit)
}

// candidates opens a step's candidates for the join: the base relation
// for a base predicate — a binary one with one column bound is the
// neighbor list of its view — and for a derived one, after memoizing the
// subquery the literal feeds, if any, the derived relation as it stands,
// cut to the window at the pinned position.
func (ev *evaluator) candidates(s *Step, bound []symtab.Sym, c *Candidates) {
	r := ev.rule
	k := r.rels[s.Pos]
	if k < 0 {
		b := ev.base[^k]
		if b == nil {
			return
		}
		ev.stats.Lookups++
		c.Tally(&ev.stats.Retrieved)
		if (s.Mask == 1 || s.Mask == 2) && b.Arity() == 2 {
			a := &ev.adj[2*^k+int(s.Mask>>1)]
			nbr, ok := a.Lookup(bound[0])
			if !ok {
				nbr, _ = a.Probe(bound[0])
			}
			c.Pairs(int(s.Mask&1), bound[0], nbr)
			return
		}
		b.Match(&c.Cursor, s.Mask, bound)
		return
	}
	if r.Feeds != nil && r.Feeds[s.Pos] >= 0 {
		ev.enter(r.Feeds[s.Pos], bound)
	}
	lo, hi := 0, math.MaxInt
	if s.Pos == ev.pin {
		lo, hi = ev.lo[k], ev.hi[k]
	}
	ev.rels[k].Window(&c.Cursor, s.Mask, bound, lo, hi)
}

// derive adds a solution's head. Nothing is ever removed from a derived
// relation, which is what makes a slot window a delta.
func (ev *evaluator) derive(frame []symtab.Sym, _ int) {
	ev.head = Project(ev.head[:0], ev.rule.Body.Head, frame)
	ev.stats.Firings++
	if ev.rels[ev.rule.head].Insert(ev.head) {
		ev.stats.Derived++
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
