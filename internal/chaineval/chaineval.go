// Package chaineval implements the paper's evaluation algorithm
// (Figures 4 and 5): a demand-driven graph traversal that evaluates a
// query p(a, Y) over the equation system produced by the Lemma 1
// transformation.
//
// The state of the evaluation is the interpretation graph G(p,a,i) of the
// automaton hierarchy EM(p,i): its nodes are pairs (q, u) of an automaton
// state and a term. Only nodes are stored, never arcs — the paper's third
// performance factor. The graph is built during the traversal, so the set
// of constructed nodes equals the set of nodes reachable from the query
// constant, which bounds the potentially relevant facts (factor two), and
// each node is visited exactly once (factor one: no duplicated work).
//
// The automata are id-free (see internal/automaton): a state is a class
// of same-label predicate occurrences that the same transitions reach,
// about to be read, so a node (q, u) is one probe — "the tuples of q's
// relation at u" — and the nodes it leads to are that probe's results at
// the states of the occurrences that may follow. There
// are no nodes that only pass a term along. The exceptions are the query
// node at Start, which carries the probes of every occurrence that can
// begin a word, the answers at a sink Final, which probe nothing, and a
// continuation point, below. Where a regular equation's Final is the
// state of the class that holds its terms (automaton.CompileRegular), an
// answer is one node that probes on like any other. Every base
// transition leaving the state of a visited node is probed exactly once,
// and nothing else is probed.
//
// The visited set is one structure whatever the size of the domain: per
// automaton state, bitset blocks of a few thousand terms each, hooked on
// first touch (see visited.go), and all per-run scratch is pooled — the
// steady-state warm path of a prepared plan allocates nothing. The
// answers are the terms visited at Final, so the sorted answer set is
// read off Final's blocks in order, with no sort of the terms.
//
// Transitions on derived predicates are continuation points: a node whose
// state leaves by one waits there. At the end of each main-loop iteration
// those transitions are replaced by fresh copies of M(e_r) (building
// EM(p,i+1)) — spliced in without pass-through states, the copy's entry
// transitions hung on the waiting state itself — and the waiting nodes
// resume over the new transitions only. The loop stops when no
// continuation points remain; for cyclic data, where that may never
// happen, the engine optionally applies the Marchetti-Spaccamela m·n
// accessible-node bound for equations of the linear shape
// p = e0 ∪ e1·p·e2. m and n count D1 = e1*(a) and D2 = e2*(e0(D1)), the
// terms at Final of two more traversals, of M(e1*) and M(e0·e2*), on a
// scratch of their own. They cost probes, so a run makes them only once
// its continuation terms repeat (see cyclicBound): on data acyclic under
// e1 a query probes only what its traversal reaches.
//
// An Engine compiles its equation system once, on the first Precompile
// or query: M(e_p), annotated, for every equation, whether it is regular,
// and the cyclic guard's M(e1*) and M(e0·e2*). Nothing it compiled changes
// afterwards; a run only clones M(e_p) into its own EM(p,1) when the
// equation expands. There is one direction: the paper evaluates p(X, b)
// "by applying the algorithm to the query r(b, Y), where r is the inverse
// of p", and so does a caller — p(b, Y) on an engine over sys.Reverse(),
// whose base transitions are inverse labels.
package chaineval

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"chainlog/internal/automaton"
	"chainlog/internal/edb"
	"chainlog/internal/equations"
	"chainlog/internal/expr"
	"chainlog/internal/symtab"
)

// Source resolves base-predicate names to binary-relation access. The
// extensional database implements it directly; the Section 4
// transformation supplies a source whose base-r/in-r/out-r relations are
// computed by demand-driven joins. No source reports the size of its
// domain: every structure of a run grows with what the run touches.
type Source interface {
	// Successors returns all v with pred(u, v), adding the extensional
	// probes it made to find them to work — the asking run's tally, the
	// only place they are counted.
	Successors(pred string, u symtab.Sym, work *edb.Counters) []symtab.Sym
	// Predecessors returns all u with pred(u, v); needed for inverse
	// labels introduced by p(X, b) query reversal.
	Predecessors(pred string, v symtab.Sym, work *edb.Counters) []symtab.Sym
}

// Options tunes the engine.
type Options struct {
	// MaxIterations caps the number of main-loop iterations; 0 means no
	// cap (the loop runs until no continuation points remain or the
	// cyclic guard fires).
	MaxIterations int
	// DisableCyclicGuard turns off the m·n accessible-node iteration
	// bound for equations of the linear shape p = e0 ∪ e1·p·e2 (the
	// extension of Marchetti-Spaccamela et al. discussed in Section 3).
	// The guard is on by default: with it, evaluation over cyclic data
	// terminates with the complete answer; without it, cyclic data loops
	// until MaxIterations (or forever). The guard traverses M(e1*) and
	// M(e0·e2*) for m·n only when the run's continuation terms repeat
	// (see cyclicBound), so on data acyclic under e1 a guarded run does
	// exactly the work of an unguarded one.
	DisableCyclicGuard bool
	// MaxNodes aborts evaluation when the interpretation graph exceeds
	// this many nodes; 0 means unlimited. A defensive resource bound, read
	// by Query and QueryStream; QueryInto, QueryBatchCtx and QueryAllCtx
	// take their run's cap instead.
	MaxNodes int
	// Parallelism bounds the traversal worker pool: levels of the
	// frontier whose size reaches parFrontierThreshold are sharded across
	// up to this many workers (see parallel.go). 0 and 1 evaluate
	// sequentially on the caller's goroutine — the default, preserving
	// the zero-allocation warm path — and negative values use
	// runtime.GOMAXPROCS(0). Parallel and sequential evaluation return
	// identical answer sets and statistics; queries whose frontiers never
	// reach the threshold run sequentially regardless of the setting.
	// Tracing (Tracer != nil) forces sequential evaluation so event order
	// stays deterministic.
	Parallelism int
	// Tracer, when non-nil, observes iterations, node insertions,
	// expansions and answers as they happen.
	Tracer Tracer
}

// Result reports the answers and the evaluation statistics the paper's
// complexity analysis is stated in.
type Result struct {
	// Answers is the sorted answer set {u | (q_f, u) ∈ G}.
	Answers []symtab.Sym
	// Iterations is the number of main-loop iterations performed (the h
	// of Theorem 4).
	Iterations int
	// Nodes is the number of nodes in the final interpretation graph.
	Nodes int
	// States and Transitions describe the final EM(p,i) automaton.
	States, Transitions int
	// Expansions counts derived-predicate transitions expanded.
	Expansions int
	// Converged is true when the algorithm terminated with a complete
	// answer (continuation points exhausted, or the cyclic bound
	// guaranteed completeness); false when MaxIterations cut it off.
	Converged bool
	// BoundStopped is true when the cyclic guard ended the loop, at
	// iteration m·n.
	BoundStopped bool
	// AnswerCompleteAt is the first iteration after which the answer set
	// stopped growing (1-based; 0 when no iterations ran). Experiment E3
	// reads the paper's "m·n iterations needed" claim from this.
	AnswerCompleteAt int
	// Lookups and Retrieved are the extensional probes the run made and
	// the tuples they returned: its own tally, exact whatever else reads
	// the store meanwhile. They include the probes of the cyclic guard's
	// traversals of M(e1*) and M(e0·e2*) only on runs that computed the
	// bound.
	Lookups, Retrieved int64
}

// Engine evaluates queries over one equation system and one source.
//
// An Engine compiles its system once — on the first Precompile or query
// — and never changes what it compiled, so the same engine answers
// queries for many different bound constants, from many goroutines at
// once, without recompiling or locking anything; the per-query state is
// pooled scratch local to each call. The source must itself be safe for
// concurrent reads, as the extensional store is. Only the resolved-
// relation table changes afterwards, through RefreshRelations, which runs
// with no query in flight.
type Engine struct {
	sys  *equations.System
	src  Source
	opts Options

	// once compiles the system into preds, one entry per equation.
	once  sync.Once
	preds map[string]*compiledPred
	// rels is the resolved extensional adjacency table, indexed by the Aux
	// annotation stamped on automaton edges: base-predicate transitions
	// resolve their relation once, at compile time, so the traversal probes
	// a concrete *edb.Relation with no string hashing. relIdx maps
	// predicate names to their index. Entries are never nil: predicates
	// that cannot be resolved stay at NoAux on their edges and keep the
	// by-name Source path.
	rels   []*edb.Relation
	relIdx map[string]int32
}

// compiledPred is what a query on one predicate p needs, compiled once.
type compiledPred struct {
	// m is M(e_p), annotated; regular is IsRegularFor(p): m never expands,
	// so runs traverse it in place instead of cloning it into EM(p,1).
	// Unless another equation splices it, a regular m is CompileRegular's,
	// its Final a state that reads on.
	m       *automaton.NFA
	regular bool
	// d1 and d2 are M(e1*) and M(e0·e2*) of the linear shape
	// p = e0 ∪ e1·p·e2 the cyclic guard bounds, compiled by
	// CompileRegular: a traversal of d1 from a visits D1 at Final, one of
	// d2 from D1 visits D2 there. nil when p has no such shape or the
	// guard is off.
	d1, d2 *automaton.NFA
}

// New returns an engine over the system and source.
func New(sys *equations.System, src Source, opts Options) *Engine {
	return &Engine{sys: sys, src: src, opts: opts}
}

// compile builds every equation's compiledPred; it runs once.
func (e *Engine) compile() {
	e.preds = make(map[string]*compiledPred, len(e.sys.Order))
	e.relIdx = make(map[string]int32)
	// spliced holds the derived predicates some equation mentions: an
	// expansion splices their M(e_r), which needs a sink Final.
	spliced := make(map[string]bool)
	for _, p := range e.sys.Order {
		for _, q := range expr.Preds(e.sys.Eq[p]) {
			if e.sys.Derived[q] {
				spliced[q] = true
			}
		}
	}
	for _, p := range e.sys.Order {
		c := &compiledPred{regular: e.sys.IsRegularFor(p)}
		if c.regular && !spliced[p] {
			c.m = e.annotate(automaton.CompileRegular(e.sys.Eq[p]))
		} else {
			c.m = e.annotate(automaton.Compile(e.sys.Eq[p]))
		}
		if !e.opts.DisableCyclicGuard {
			if shape, ok := e.sys.LinearDecompose(p); ok {
				c.d1 = e.annotate(automaton.CompileRegular(expr.NewStar(shape.E1)))
				c.d2 = e.annotate(automaton.CompileRegular(expr.NewConcat(shape.E0, expr.NewStar(shape.E2))))
			}
		}
		e.preds[p] = c
	}
}

// annotate stamps m's edge kinds (derived-predicate continuation points)
// and resolved-relation indexes.
func (e *Engine) annotate(m *automaton.NFA) *automaton.NFA {
	m.Annotate(func(p string) bool { return e.sys.Derived[p] }, e.relAux)
	return m
}

// relAux returns the adjacency-table index for pred, resolving and
// appending on first use; NoAux when the source is not a StoreSource or
// the store has no relation for pred yet. It runs while compiling and
// inside RefreshRelations, never beside a query.
func (e *Engine) relAux(pred string) int32 {
	if i, ok := e.relIdx[pred]; ok {
		return i
	}
	ss, ok := e.src.(StoreSource)
	if !ok {
		return automaton.NoAux
	}
	rel := ss.Store.Relation(pred)
	if rel == nil {
		// Not indexed: a relation materialized later (facts inserted after
		// compilation) resolves in RefreshRelations.
		return automaton.NoAux
	}
	i := int32(len(e.rels))
	e.rels = append(e.rels, rel)
	e.relIdx[pred] = i
	return i
}

// compiled returns what was compiled for pred, compiling the system on
// first use.
func (e *Engine) compiled(pred string) (*compiledPred, error) {
	e.once.Do(e.compile)
	if c, ok := e.preds[pred]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("chaineval: no equation for predicate %s", pred)
}

// Precompile compiles the system now instead of on the first query: the
// automaton M(e_p) of every equation, and the cyclic guard's M(e1*) and
// M(e0·e2*), so that queries perform no compilation at all. The whole system
// compiles at once, whichever pred the caller names. Prepared query plans
// call this once at plan-build time.
func (e *Engine) Precompile(pred string) { e.once.Do(e.compile) }

// System returns the engine's equation system.
func (e *Engine) System() *equations.System { return e.sys }

// Automaton returns M(e_pred) as the engine runs it: compiled and
// annotated, nil when the system has no equation for pred. It is shared —
// read it, print it, do not change it.
func (e *Engine) Automaton(pred string) *automaton.NFA {
	c, err := e.compiled(pred)
	if err != nil {
		return nil
	}
	return c.m
}

// RefreshRelations re-synchronizes the engine's resolved-relation table
// with its source after a fact-only mutation, without recompiling
// anything: the table is re-resolved by name (entries are pointer-stable
// for in-place stores, so this matters only when the source itself
// re-materialized a relation) and the compiled automata get a
// ReannotateAux pass so base-predicate edges whose relation did not exist
// at compile time pick up their direct adjacency pointer. The equation
// system and the automata are untouched — they depend only on the rules.
//
// The caller must exclude concurrent queries on this engine for the
// duration (the chainlog layer runs it under the owning Prepared's
// exclusive plan lock, after a mutation that itself excluded all
// readers).
func (e *Engine) RefreshRelations() {
	ss, ok := e.src.(StoreSource)
	if !ok {
		return
	}
	e.once.Do(e.compile)
	for pred, i := range e.relIdx {
		if rel := ss.Store.Relation(pred); rel != nil {
			e.rels[i] = rel
		}
	}
	for _, c := range e.preds {
		for _, m := range [...]*automaton.NFA{c.m, c.d1, c.d2} {
			if m != nil {
				m.ReannotateAux(e.relAux)
			}
		}
	}
}

// Query evaluates p(a, Y), capped at Options.MaxNodes, and returns the
// sorted set of Y values; Answers is never nil. To evaluate p(X, b),
// query p(b, Y) on an engine over sys.Reverse(). QueryInto is the same
// run under a context and a cap of its own.
func (e *Engine) Query(pred string, a symtab.Sym) (*Result, error) {
	answers, res, err := e.QueryInto(nil, pred, a, []symtab.Sym{}, e.opts.MaxNodes)
	if err != nil {
		return nil, err
	}
	res.Answers = answers
	return &res, nil
}

// streamBufs holds QueryStream's answer buffers.
var streamBufs = sync.Pool{New: func() any { return new([]symtab.Sym) }}

// QueryStream evaluates p(a, Y) like Query but hands the sorted answers
// to yield, from a pooled buffer, and reports no statistics: a warm call
// on a non-expanding (regular) equation allocates nothing.
func (e *Engine) QueryStream(pred string, a symtab.Sym, yield func(symtab.Sym)) error {
	buf := streamBufs.Get().(*[]symtab.Sym)
	defer streamBufs.Put(buf)
	answers, _, err := e.QueryInto(nil, pred, a, (*buf)[:0], e.opts.MaxNodes)
	*buf = answers
	for _, v := range answers {
		yield(v)
	}
	return err
}

// QueryInto is the one single-binding call: it evaluates p(a, Y) on
// pooled scratch, appends the sorted answers to dst and returns them with
// the run's statistics (Result.Answers nil); a warm call on a regular
// equation allocates only what dst grows by. The traversal polls ctx at
// every level boundary and every cancelCheckInterval node visits and
// returns an error wrapping context.Cause(ctx) once it fires; a nil ctx
// never cancels and costs nothing. A graph of more than maxNodes nodes
// fails with ErrMaxNodes; 0 means unlimited.
func (e *Engine) QueryInto(ctx context.Context, pred string, a symtab.Sym, dst []symtab.Sym, maxNodes int) ([]symtab.Sym, Result, error) {
	return e.query(ctx, pred, a, dst, e.traversalWorkers(), maxNodes)
}

// query is QueryInto on workers traversal workers: a fanned-out batch
// pins it to 1, so nested parallelism cannot oversubscribe the host.
func (e *Engine) query(ctx context.Context, pred string, a symtab.Sym, dst []symtab.Sym, workers, maxNodes int) ([]symtab.Sym, Result, error) {
	sc := acquireScratch()
	defer releaseScratch(sc)
	sc.maxNodes = maxNodes
	if err := e.runInto(ctx, pred, a, sc, workers); err != nil {
		return dst, Result{}, err
	}
	return sc.G.appendState(slices.Grow(dst, sc.finals), sc.m.Final), sc.res, nil
}

// node is one vertex of the interpretation graph G(p,a,i).
type node struct {
	q int
	u symtab.Sym
}

// probe resolves one base-predicate edge from term u — through the
// resolved-relation table when the edge is annotated, two array loads,
// and by name through the Source otherwise — and adds the probe to work,
// the caller's tally (the run scratch's, or a parallel worker's).
func (e *Engine) probe(t *automaton.Edge, u symtab.Sym, rels []*edb.Relation, work *edb.Counters) []symtab.Sym {
	if t.Aux >= 0 {
		if t.Kind == automaton.KindBaseInv {
			return tally(work, rels[t.Aux].Predecessors(u))
		}
		return tally(work, rels[t.Aux].Successors(u))
	}
	if t.Kind == automaton.KindBaseInv {
		return e.src.Predecessors(t.Label.Pred, u, work)
	}
	return e.src.Successors(t.Label.Pred, u, work)
}

// ErrMaxNodes is the sentinel wrapped by every interpretation-graph
// resource-bound error, so callers (the serving layer's admission
// control) can classify the failure with errors.Is.
var ErrMaxNodes = errors.New("interpretation graph exceeded MaxNodes")

// maxNodesErr is the error of a run capped at limit nodes; one
// constructor so the sequential, parallel and batch paths report
// identically.
func maxNodesErr(limit int) error {
	return fmt.Errorf("chaineval: %w=%d", ErrMaxNodes, limit)
}

// visit is the node-insertion step: mark (q, u), record answers at the
// final state, and push the node for traversal. It reports false when
// the run's cap is exceeded.
func (e *Engine) visit(sc *runScratch, q int, u symtab.Sym) bool {
	if !sc.G.visit(q, u) {
		return true
	}
	if sc.tr != nil {
		sc.tr.Node(q, u)
	}
	if q == sc.m.Final {
		sc.finals++
		if sc.tr != nil {
			sc.tr.Answer(u)
		}
	}
	sc.stack = append(sc.stack, node{q, u})
	return sc.maxNodes == 0 || sc.G.count <= sc.maxNodes
}

// follow is the body of Figure 5 for one node: it takes n's transitions
// from edge index from on (0 for a node just popped; the first spliced
// edge for a continuation point resumed after its state was expanded),
// creating the nodes they lead to, and records n as a continuation point
// when one of them is on a derived predicate. The edge dispatch is a jump
// on the precomputed Kind — no string comparisons or map lookups — base
// probes go through the resolved-relation table, and a transition with
// several targets is probed once, at its head, and fanned out. It reports
// false when the run's cap is exceeded.
func (e *Engine) follow(sc *runScratch, n node, from int) bool {
	continued := false
	var vs []symtab.Sym
	edges := sc.m.Edges(n.q)
	for i := from; i < len(edges); i++ {
		t := &edges[i]
		if t.Removed() {
			continue
		}
		switch t.Kind {
		case automaton.KindID:
			if !e.visit(sc, int(t.To), n.u) {
				return false
			}
		case automaton.KindDerived:
			// follow runs at most once per node and iteration, so
			// appending on the first derived transition keeps sc.cont
			// duplicate-free without a set.
			if !continued {
				continued = true
				sc.cont = append(sc.cont, n)
			}
		default:
			if !t.Fan {
				vs = e.probe(t, n.u, sc.rels, &sc.work)
			}
			to := int(t.To)
			for _, v := range vs {
				if !e.visit(sc, to, v) {
					return false
				}
			}
		}
	}
	return true
}

// traverse implements Figure 5 iteratively: it pops nodes and follows
// their transitions until the stack is empty.
func (e *Engine) traverse(sc *runScratch) error {
	ticks := 0
	for len(sc.stack) > 0 {
		if ticks++; ticks&cancelCheckMask == 0 {
			if err := sc.cn.check(); err != nil {
				return err
			}
		}
		n := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		if !e.follow(sc, n, 0) {
			return maxNodesErr(sc.maxNodes)
		}
	}
	return nil
}

// runInto is the main program of Figure 4. It leaves the statistics in
// sc.res and the answer set on Final's visited blocks; everything it touches
// lives in sc, so a warm scratch makes the whole run allocation-free
// until the automaton itself must grow (EM expansion). A non-nil ctx is
// polled at level boundaries and every cancelCheckInterval node visits.
func (e *Engine) runInto(ctx context.Context, pred string, a symtab.Sym, sc *runScratch, workers int) error {
	c, err := e.compiled(pred)
	if err != nil {
		return err
	}
	em := c.m
	if !c.regular {
		// EM(p,1) = copy of M(e_p); expansion will mutate it, so copy
		// into the scratch automaton (storage reused run over run).
		// Regular equations never expand and traverse the compiled
		// automaton directly, clone-free.
		em.CloneInto(&sc.em)
		em = &sc.em
	}
	sc.m = em
	sc.res = Result{}
	res := &sc.res

	sc.rels = e.rels
	sc.work = edb.Counters{}

	sc.cn = canceler{ctx: ctx}
	cn := &sc.cn
	sc.tr = e.opts.Tracer
	// iterBound is the cyclic guard's m·n, 0 until the loop computes it.
	iterBound := 0
	if c.d1 != nil {
		sc.seen.reset()
		sc.seen.visit(0, a)
	}

	sc.G.reset()
	sc.stack = sc.stack[:0]
	sc.cont = sc.cont[:0]
	sc.resume = sc.resume[:0]
	sc.finals = 0

	for {
		res.Iterations++
		if sc.tr != nil {
			sc.tr.Iteration(res.Iterations)
		}
		// Level boundary: the canonical cancellation point (regular
		// equations converge in one iteration, so traverse/the parallel
		// workers poll mid-level too).
		if err := cn.check(); err != nil {
			return err
		}
		sc.cont = sc.cont[:0]
		prevFinals := sc.finals
		// Seed the traversal: the query node first, and afterwards the
		// continuation points of the previous iteration, each over the
		// transitions its state has just acquired — the node itself is in
		// G already and what it did before is not repeated.
		if res.Iterations == 1 && !e.visit(sc, em.Start, a) {
			return maxNodesErr(sc.maxNodes)
		}
		for _, r := range sc.resume {
			if !e.follow(sc, r.n, r.from) {
				return maxNodesErr(sc.maxNodes)
			}
		}
		if workers > 1 {
			// Drain level-synchronously with sharded large levels.
			err = e.traverseParallel(sc, workers)
		} else {
			err = e.traverse(sc)
		}
		if err != nil {
			return err
		}
		if sc.finals > prevFinals || res.AnswerCompleteAt == 0 && sc.finals > 0 {
			res.AnswerCompleteAt = res.Iterations
		}

		if len(sc.cont) == 0 {
			res.Converged = true
			break
		}
		if e.opts.MaxIterations > 0 && res.Iterations >= e.opts.MaxIterations {
			break
		}
		if c.d1 != nil && iterBound == 0 {
			// a and the continuation terms are in D1, the answers in D2, so
			// m·n is at least their product: while the iterations are
			// fewer, the bound cannot fire and is not worth its probes.
			for _, n := range sc.cont {
				sc.seen.visit(0, n.u)
			}
			if res.Iterations >= sc.seen.count*max(1, sc.finals) {
				if iterBound, err = e.cyclicBound(c, a, sc); err != nil {
					return err
				}
			}
		}
		if iterBound > 0 && res.Iterations >= iterBound {
			res.Converged = true
			res.BoundStopped = true
			break
		}
		e.expand(sc)
	}

	res.Nodes = sc.G.count
	res.States = em.NumStates()
	res.Transitions = em.NumTrans()
	res.Lookups, res.Retrieved = sc.work.Lookups, sc.work.Retrieved
	return nil
}

// expand builds EM(p,i+1): every derived-predicate transition leaving a
// state that acquired a continuation point is replaced by a copy of its
// M(e_r), and the continuation points are queued to resume over the
// copy's entry transitions. The points are grouped by sorting them in
// place, so states are expanded — and numbered, and traced — in the same
// order on every run.
func (e *Engine) expand(sc *runScratch) {
	em := sc.m
	slices.SortFunc(sc.cont, func(a, b node) int {
		return cmp.Or(cmp.Compare(a.q, b.q), cmp.Compare(a.u, b.u))
	})
	sc.resume = sc.resume[:0]
	for i := 0; i < len(sc.cont); {
		q := sc.cont[i].q
		entries := len(em.Edges(q))
		for k := 0; k < entries; k++ {
			// Splice appends to q's edges: take the slice afresh.
			t := &em.Edges(q)[k]
			if t.Removed() || t.Kind != automaton.KindDerived || t.Fan {
				continue
			}
			pred := t.Label.Pred
			first := em.Splice(q, k, e.preds[pred].m)
			sc.res.Expansions++
			if sc.tr != nil {
				sc.tr.Expand(pred, q, first)
			}
		}
		for ; i < len(sc.cont) && sc.cont[i].q == q; i++ {
			sc.resume = append(sc.resume, resumePoint{sc.cont[i], entries})
		}
	}
}

// cyclicBound computes the m·n iteration bound for equations of the
// linear shape p = e0 ∪ e1·p·e2: m is the number of terms accessible from
// the query constant by repeated application of e1, and n the number of
// terms accessible via e2 from the e0-images of those (the paper's D1 and
// D2 sets); c must have the shape. Each set is the terms at Final of one
// traversal: of M(e1*) from a, then of M(e0·e2*) from every term of D1.
// A run calls it at most once, and only on an iteration that ends with
// continuation points when the iterations have reached
// |seen|·max(1, answers) — a, the continuation terms and the answers lie
// in D1 and D2, so that product is at most m·n and no earlier iteration
// could have stopped. When e1 is acyclic from a, every iteration i has
// seen i+1 distinct terms and the bound is never computed: only runs
// whose continuation points repeat pay its probes. The traversals run
// sequentially and uncapped on a pooled scratch of their own, report to
// no tracer, add their probes to the run's tally and poll the run's
// canceler.
func (e *Engine) cyclicBound(c *compiledPred, a symtab.Sym, sc *runScratch) (int, error) {
	r := acquireScratch()
	defer releaseScratch(r)
	r.rels, r.cn, r.work, r.maxNodes = sc.rels, sc.cn, sc.work, 0
	r.terms = append(r.terms[:0], a)
	err := e.reach(r, c.d1)
	m := r.finals
	if err == nil {
		r.terms = r.G.appendState(r.terms[:0], c.d1.Final)
		err = e.reach(r, c.d2)
	}
	sc.work = r.work
	return m * max(1, r.finals), err
}

// reach traverses m from every term of r.terms at Start, leaving the
// terms m's relation leads to from them at Final.
func (e *Engine) reach(r *runScratch, m *automaton.NFA) error {
	r.m = m
	r.G.reset()
	r.stack, r.finals = r.stack[:0], 0
	for _, u := range r.terms {
		e.visit(r, m.Start, u)
	}
	return e.traverse(r)
}
