package chainlog

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"chainlog/internal/adorn"
	"chainlog/internal/analysis"
	"chainlog/internal/ast"
	"chainlog/internal/binchain"
	"chainlog/internal/bottomup"
	"chainlog/internal/chaineval"
	"chainlog/internal/ctxpoll"
	"chainlog/internal/equations"
	"chainlog/internal/magic"
	"chainlog/internal/optimizer"
	"chainlog/internal/parser"
	"chainlog/internal/qsqnet"
	"chainlog/internal/symtab"
)

// Prepared is a compiled query template: the result of parsing, program
// slicing, Section 2 classification and the compilation of whichever
// evaluation routes the template was asked for — for the chain route the
// Section 4 transformation (when needed), the Lemma 1 equation build and
// automaton construction. Those phases run once per rule epoch, in the
// handle's route table; Run only evaluates a concrete parameter vector
// over the plan chosen from it.
//
// A Prepared is safe for concurrent use: any number of goroutines may
// Run it simultaneously, each with its own parameters. The plan tracks
// the DB's two mutation epochs separately: rule-epoch movement
// (LoadProgram with rules, SetStore, Invalidate) makes the next Run
// recompile transparently, while fact-epoch movement (Assert, Retract,
// Apply) changes no plan — no plan compiles facts in, and a Section 4
// call numbers its own tuple terms — so a fact mutation costs the next
// Run neither parsing nor equation transformation nor automaton
// compilation, nor a re-costing: only runtime feedback re-costs a choice.
type Prepared struct {
	// text and vars are the template as this handle's caller wrote it —
	// the variable names its answers carry. Everything else is compiled,
	// and shared by every handle the plan cache gives out for one template
	// shape: sg(?, Y), sg(?, Z) and the literal sg(john, W) compile once,
	// run one plan and feed one optimizer record.
	text string
	vars []string
	// maxNodes caps each run's interpretation graph (Options.MaxNodes): the
	// caller's, never compiled into the plan.
	maxNodes int
	*compiled
}

// handle is a caller's handle on the compiled plan: its template text and
// variable names, and opts.MaxNodes as the cap of its runs.
func (c *compiled) handle(text string, vars []string, opts Options) *Prepared {
	return &Prepared{text: text, vars: vars, maxNodes: opts.MaxNodes, compiled: c}
}

// capped returns p running under maxNodes: p itself when that is its cap
// already, otherwise a copy that shares its compiled plan.
func (p *Prepared) capped(maxNodes int) *Prepared {
	if p.maxNodes == maxNodes {
		return p
	}
	c := *p
	c.maxNodes = maxNodes
	return &c
}

// compiled is a template's compiled state and what its runs have
// measured.
type compiled struct {
	db   *DB
	tmpl ast.Query
	// opts are the options the plan was compiled under, MaxNodes zeroed:
	// a cap is its handle's.
	opts Options
	// nparams is the number of '?' holes in the template.
	nparams int

	// cur is the template's current choice. A run loads it once and runs,
	// stamps and records by it alone; a recompile or a re-optimization
	// replaces it and never changes it.
	cur atomic.Pointer[choice]

	// mu serialises what replaces the choice or asks the route table:
	// recompiles, re-optimizations and Explain. routes is the table of
	// the current choice's rule epoch.
	mu     sync.Mutex
	routes *routes

	// obsByStrategy remembers the work EWMA per effective strategy
	// (indexed by the Strategy value) across re-optimizations: a route
	// that measured badly keeps its measured cost when feedback re-opens
	// the contest. The slots live as long as the route table they
	// measure: a recompile clears them, a write does not.
	obsByStrategy [strategyCount]atomic.Uint64
}

// choice is a template's plan as one value: what runs, how wide, what it
// reports as and why. A compile or a re-optimization builds it, and
// nothing changes it after but what its own runs measure.
type choice struct {
	plan plan
	// decision is the optimizer's record, nil when the route is pinned or
	// the predicate is extensional; strategy is the route plan runs as —
	// what Stats.Strategy reports — and workers the width of its runs:
	// every processor on the decision's parallel verdict, one otherwise.
	decision *optimizer.Decision
	strategy Strategy
	workers  int
	// chainErr is why a pinned Chain runs its fallback (nil when it does
	// not).
	chainErr error
	// ruleEpoch is the rule epoch the plan compiled at, and reopts how
	// often the handle re-optimized up to this choice.
	ruleEpoch uint64
	reopts    uint64
	// work is the EWMA of the extensional tuples this choice's runs
	// retrieved (float64 bits), and feedback flags that it contradicts
	// the decision's estimate.
	work     atomic.Uint64
	feedback atomic.Bool
}

// newChoice is the choice of plan pl, run as s on dec's verdict.
func newChoice(pl plan, dec *optimizer.Decision, s Strategy, ruleEpoch, reopts uint64) *choice {
	c := &choice{plan: pl, decision: dec, strategy: s, workers: 1, ruleEpoch: ruleEpoch, reopts: reopts}
	if dec != nil && dec.Parallel {
		c.workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// plan is one compiled evaluation route — an entry of a route table, or
// the index lookup of an extensional predicate. There are three: basePlan
// (the index lookup), chainPlan (the paper's traversal, direct or through
// Section 4) and bottomUpPlan (the QSQ net or the seminaive fixpoint).
// Everything that depends only on the rules and the binding pattern is
// compiled into it; run supplies the constants. A plan never changes
// after it compiles: it bakes no facts in, and what a run meets lives as
// long as the run, so every plan survives a fact-only mutation. The
// caller holds db.mu for reading around run.
type plan interface {
	// run answers a binding set: argSets[k] is a parameter vector (one
	// value per '?' hole, in order) and out[k] its answer, which arrives
	// without rows (its Cells may bring capacity). run appends the
	// vector's rows to out[k].Cells as symbols, counts them and fills in
	// out[k].Stats; finish sorts them and names are made at the edge. It
	// returns the extensional tuples the whole set consulted. One vector
	// runs by itself; a bound chain plan runs several as one engine batch,
	// and every other plan fans them out (eachBinding). ctx may be nil (no
	// deadline); chain plans poll it mid-traversal, the fixpoint and qsqnet
	// routes inside their rule-body joins. maxNodes and workers are the
	// run's cap on a chain traversal's graph (0 = unlimited) and the
	// number of workers it shards its frontiers across (1 = sequential);
	// the other plans ignore both.
	run(ctx context.Context, db *DB, maxNodes, workers int, argSets [][]symtab.Sym, out []SymRows) (int64, error)
}

// Prepare compiles a parameterized query once, for many runs. The query
// is a literal whose bound positions may be '?' placeholders, e.g.
//
//	sg, err := db.Prepare("sg(?, Y)", chainlog.Options{})
//	ans, err := sg.Run("john")
//	ans, err = sg.Run("ann")
//
// Placeholders stand for bound constants ('b' positions of the paper's
// adornment); variables are the query's free positions. Constants may
// also be written literally, fixing them into the plan. Run accepts one
// value per placeholder, in order of appearance.
func (db *DB) Prepare(query string, opts Options) (*Prepared, error) {
	q, err := parser.ParseQueryTemplate(query, db.st)
	if err != nil {
		return nil, err
	}
	p, err := db.prepareQuery(q, opts)
	if err != nil {
		return nil, err
	}
	p.text, p.maxNodes = query, opts.MaxNodes
	return p, nil
}

// prepareQuery builds an uncapped Prepared for an already parsed template.
func (db *DB) prepareQuery(tmpl ast.Query, opts Options) (*Prepared, error) {
	opts.MaxNodes = 0
	p := &Prepared{vars: freeVars(tmpl), compiled: &compiled{db: db, tmpl: tmpl, opts: opts}}
	for _, a := range tmpl.Args {
		if a.IsHole() {
			p.nparams++
		}
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if err := p.compileLocked(); err != nil {
		return nil, err
	}
	return p, nil
}

// compileLocked starts a route table for the DB's current rules, takes
// the template's plan from it and stamps the current epochs. This is the
// one place a route is decided: an extensional predicate is an index
// lookup; Auto runs the optimizer's pick among the routes that compiled;
// a pinned strategy takes its one route or returns the error that
// rejected it. Only a pinned Chain falls back — to the first of qsqnet,
// seminaive that compiled — and the choice then reports the route that
// runs and the chain error. The caller holds db.mu (shared suffices) and
// either p.mu or p uniquely, as prepareQuery does.
func (p *Prepared) compileLocked() error {
	db := p.db
	t := db.newRoutes(p.tmpl, p.opts)
	var (
		pl       plan
		dec      *optimizer.Decision
		chainErr error
		err      error
	)
	eff := p.opts.Strategy
	switch {
	case !t.info.Derived[p.tmpl.Pred]:
		pl = &basePlan{tmpl: p.tmpl, bound: newBoundVec(p.tmpl), proj: t.proj}
	case eff == Auto:
		dec = t.optimize(nil)
		eff = strategyForName(dec.Strategy)
		pl, err = t.route(eff)
	case eff == Chain:
		if pl, err = t.route(Chain); err != nil {
			chainErr = err
			for _, eff = range []Strategy{QSQNet, Seminaive} {
				if pl, err = t.route(eff); err == nil {
					break
				}
			}
		}
	default:
		pl, err = t.route(eff)
	}
	if err != nil {
		return err
	}
	c := newChoice(pl, dec, eff, db.ruleEpoch, 0)
	c.chainErr = chainErr
	if old := p.cur.Load(); old != nil {
		c.reopts = old.reopts
	}
	p.routes = t
	for i := range p.obsByStrategy {
		p.obsByStrategy[i].Store(0)
	}
	p.cur.Store(c)
	return nil
}

// String returns the query template the plan was prepared from.
func (p *Prepared) String() string {
	if p.text != "" {
		return p.text
	}
	return p.tmpl.Render(p.db.st)
}

// Vars names the template's free variables, in order of appearance —
// the column names of every Run's answer rows.
func (p *Prepared) Vars() []string { return append([]string(nil), p.vars...) }

// NumParams returns the number of '?' placeholders Run expects.
func (p *Prepared) NumParams() int { return p.nparams }

// Run executes the prepared plan with one constant name per '?'
// placeholder. It is safe to call from many goroutines concurrently.
func (p *Prepared) Run(args ...string) (*Answer, error) {
	return p.RunCtx(nil, args...)
}

// RunCtx is Run under a context: chain-strategy plans poll the context
// during the traversal (at level boundaries and every few thousand node
// visits), so a deadline or cancellation aborts evaluation mid-query
// with an error wrapping context.Cause(ctx) — the serving layer's
// request-deadline hook. A nil ctx behaves like Run. A constant the
// symbol table has never seen answers empty, without running the plan
// and without being interned.
func (p *Prepared) RunCtx(ctx context.Context, args ...string) (*Answer, error) {
	syms, known := p.lookupArgs(args)
	if !known && len(args) == p.nparams {
		r := p.unknownRows()
		return r.answer(p.db.st), nil
	}
	return p.RunSymsCtx(ctx, syms...)
}

// RunRows is the serving edge's run: RunCtx for args, or RunBatchCtx for
// batch when it is not nil, answering in symbol rows instead of named
// ones (see SymRows), so whoever writes the answer out names each cell
// once, straight from the DB's SymTab.
func (p *Prepared) RunRows(ctx context.Context, args []string, batch [][]string) ([]SymRows, error) {
	if batch == nil {
		batch = [][]string{args}
	}
	return p.rows(ctx, batch)
}

// rows runs vectors of constant names. A vector naming a constant the
// symbol table has never seen answers empty without running (see
// unknownRows); the others run as one binding set.
func (p *Prepared) rows(ctx context.Context, argSets [][]string) ([]SymRows, error) {
	syms := make([][]symtab.Sym, 0, len(argSets))
	var unknown []int
	for i, args := range argSets {
		vec, known := p.lookupArgs(args)
		if !known && len(args) == p.nparams {
			unknown = append(unknown, i)
			continue
		}
		syms = append(syms, vec)
	}
	out := make([]SymRows, len(argSets))
	ran := out
	if len(unknown) > 0 {
		ran = make([]SymRows, len(syms))
	}
	if err := p.run(ctx, syms, ran, true); err != nil {
		return nil, err
	}
	for i := range out {
		if len(unknown) > 0 && unknown[0] == i {
			out[i], unknown = p.unknownRows(), unknown[1:]
		} else {
			out[i], ran = ran[0], ran[1:]
		}
	}
	return out, nil
}

// lookupArgs resolves a parameter vector without interning it, and
// reports whether the symbol table knows every constant: a query only
// reads, so a name it brings must not grow the table (and with it every
// later snapshot and every visited set's reach). The syms of unknown
// names are left 0.
func (p *Prepared) lookupArgs(args []string) (syms []symtab.Sym, known bool) {
	syms = make([]symtab.Sym, len(args))
	known = true
	for i, a := range args {
		s, ok := p.db.st.Lookup(a)
		syms[i], known = s, known && ok
	}
	return syms, known
}

// unknownRows is the answer to a vector naming a constant the symbol
// table has never seen, found without running the plan: no fact holds
// the constant and no rule names it, and range-restricted rules take
// every head value from one or the other, so nothing answers it.
func (p *Prepared) unknownRows() SymRows {
	var r SymRows
	p.finish(&r, p.cur.Load().strategy, true)
	return r
}

// RunSyms is Run for pre-interned symbols, avoiding the name lookups on
// hot paths.
func (p *Prepared) RunSyms(args ...symtab.Sym) (*Answer, error) {
	return p.RunSymsCtx(nil, args...)
}

// RunSymsCtx is RunCtx for pre-interned symbols.
func (p *Prepared) RunSymsCtx(ctx context.Context, args ...symtab.Sym) (*Answer, error) {
	c, err := p.runSyms(ctx, args, true)
	defer symCalls.Put(c)
	if err != nil {
		return nil, err
	}
	return c.out[0].answer(p.db.st), nil
}

// run is the one way a Prepared answers: it reads the current choice
// once, runs its plan on its width over the binding set into out (one
// answer per vector), checks the deadline, finishes each answer as the
// choice's strategy — sorted by name unless sorted is false — and records
// the work once, as the mean per vector, into that choice.
func (p *Prepared) run(ctx context.Context, argSets [][]symtab.Sym, out []SymRows, sorted bool) error {
	for _, args := range argSets {
		if len(args) != p.nparams {
			return fmt.Errorf("chainlog: prepared query %s expects %d parameters, got %d", p, p.nparams, len(args))
		}
	}
	if len(argSets) == 0 {
		return nil
	}
	db := p.db
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, err := p.choiceLocked()
	if err != nil {
		return err
	}
	facts, err := c.plan.run(ctx, db, p.maxNodes, c.workers, argSets, out)
	if err != nil {
		return err
	}
	// The traversal polls the context, but a run that finishes just under
	// the wire would still pay the sorts below — on a large answer set
	// they can cost more than the traversal. A request whose deadline has
	// passed gets its error now instead.
	if err := ctxpoll.Err(ctx); err != nil {
		return err
	}
	for i := range out {
		p.finish(&out[i], c.strategy, sorted)
	}
	p.recordWork(c, facts/int64(len(out)))
	// Final deadline check: the answer is only handed out if it was fully
	// produced — evaluation and sort — within the deadline, so "returned
	// 200" and "met the deadline" mean the same thing.
	return ctxpoll.Err(ctx)
}

// finish completes the rows a plan produced: the stamp of the strategy s
// it ran as, variable names, the boolean collapse and, when sorted, name
// order. The plan has filled in the rest of Stats, the extensional probes
// it made among it.
func (p *Prepared) finish(r *SymRows, s Strategy, sorted bool) {
	r.Stats.Strategy = s
	r.Vars = p.vars
	if len(r.Vars) == 0 {
		r.True = r.n > 0
		r.Cells = nil
	} else if sorted {
		p.db.st.SortRows(r.Cells, len(r.Vars))
	}
}

// symCall is a binding set of one symbol vector and its answer. It is
// pooled because the plan's run is an interface call, which makes both
// escape, and so the answer's cells keep their capacity from call to
// call.
type symCall struct {
	args []symtab.Sym
	set  [1][]symtab.Sym
	out  [1]SymRows
}

var symCalls = sync.Pool{New: func() any { return new(symCall) }}

// runSyms runs one symbol vector on a pooled symCall, which the caller
// puts back once it is done with the answer.
func (p *Prepared) runSyms(ctx context.Context, args []symtab.Sym, sorted bool) (*symCall, error) {
	c := symCalls.Get().(*symCall)
	c.args = append(c.args[:0], args...)
	c.set[0], c.out[0] = c.args, SymRows{Cells: c.out[0].Cells[:0]}
	return c, p.run(ctx, c.set[:], c.out[:], sorted)
}

// RunSymsFunc executes the prepared plan like RunSyms but streams each
// answer row to yield as raw interned symbols instead of materializing
// an Answer — the warm path for services that run one plan at high
// rates. The row slice passed to yield is reused between calls; copy it
// if retained. It runs like every other Run — Stats are computed and the
// optimizer is fed — but skips the name sort on every route: a chain
// run's rows come in term order (symbols, or the call's ids of Section
// 4's tuple terms), other routes' in whatever order they produced them.
// A warm call on a direct chain plan over a regular equation performs
// zero heap allocations, and nothing is interned. A boolean query yields
// one empty row when it holds.
//
// yield runs after the DB's read lock is released, over rows the call
// owns, so it may call back into the DB.
func (p *Prepared) RunSymsFunc(yield func(row []symtab.Sym), args ...symtab.Sym) error {
	c, err := p.runSyms(nil, args, false)
	defer symCalls.Put(c)
	if err != nil {
		return err
	}
	r := &c.out[0]
	w := len(r.Vars)
	for i := range r.n {
		yield(r.Cells[i*w : (i+1)*w : (i+1)*w])
	}
	return nil
}

// choiceLocked returns the current choice, re-synchronized with the DB's
// rule epoch: a stale rule epoch recompiles, and a flagged estimate lets
// an Auto choice re-cost itself. In the steady state it takes no lock.
// The caller holds db.mu for reading, so the epoch is stable for the
// duration.
func (p *Prepared) choiceLocked() (*choice, error) {
	db := p.db
	c := p.cur.Load()
	if c.ruleEpoch == db.ruleEpoch && !c.feedback.Load() {
		return c, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if c = p.cur.Load(); c.ruleEpoch != db.ruleEpoch {
		if err := p.compileLocked(); err != nil {
			return nil, err
		}
		return p.cur.Load(), nil
	}
	// The rules stand, so runtime feedback contradicted the choice's
	// estimate: it re-costs itself over the table's routes, reused, not
	// rebuilt.
	return p.maybeReoptimizeLocked(db, c), nil
}

// routes is a template's route table for one rule epoch: for each
// strategy either the compiled plan or the error that rejected it,
// compiled on first request from one slice of the program and memoized.
// It is the only code in the package that calls the compilers (adorn,
// binchain, equations, magic, qsqnet); the optimizer, Explain, the
// pinned-strategy rules and Materialize all ask it, so the routes that
// are available are exactly the routes that compiled. The table is not
// safe for concurrent use: a Prepared's is guarded by p.mu, a view's
// lives inside one build. Every method needs db.mu held (shared
// suffices).
type routes struct {
	db   *DB
	tmpl ast.Query
	opts Options
	// sub is the slice of the program tmpl.Pred depends on — a database
	// can hold unrelated rule sets, and every route classifies and
	// compiles only this — and info its Section 2 classification.
	sub  *ast.Program
	info *analysis.Info
	// proj maps full tuples of the query predicate onto the answer rows.
	proj projection

	adorned memo[*adorn.Program]
	chain   memo[*chainForm]
	plans   [strategyCount]memo[plan]
}

// memo is a value built on first request, with the error that came
// instead.
type memo[T any] struct {
	v    T
	err  error
	done bool
}

func (m *memo[T]) get(build func() (T, error)) (T, error) {
	if !m.done {
		m.v, m.err = build()
		m.done = true
	}
	return m.v, m.err
}

func (db *DB) newRoutes(tmpl ast.Query, opts Options) *routes {
	sub := db.relevantProgram(tmpl.Pred)
	return &routes{db: db, tmpl: tmpl, opts: opts, sub: sub, info: analysis.Analyze(sub), proj: newProjection(tmpl.Args)}
}

// adornedProgram is the adorned program of the slice, shared by the
// Section 4 route and the magic-sets rewriting.
func (t *routes) adornedProgram() (*adorn.Program, error) {
	return t.adorned.get(func() (*adorn.Program, error) { return adorn.Adorn(t.sub, t.tmpl) })
}

// chainForm is the chain route up to the last step that can reject a
// program — what the optimizer prices: direct or Section 4, regular or
// not. The engine is built from it when the route is first taken.
type chainForm struct {
	sys  *equations.System
	tr   *binchain.Transformed // nil on the direct route
	pred string                // the predicate of sys the query asks for
}

// chainForm compiles the paper's route: the Lemma 1 equations of the
// slice itself when it is a binary-chain program and the query is bf, fb
// or ff, otherwise of its Section 4 transformation into a binary-chain
// program over tuple terms, which depends only on the binding pattern.
func (t *routes) chainForm() (*chainForm, error) {
	return t.chain.get(func() (*chainForm, error) {
		f := &chainForm{pred: t.tmpl.Pred}
		prog := t.sub
		a := t.tmpl.Adornment()
		if !t.info.BinaryChainProgram() || t.opts.forceSection4 || (a != "bf" && a != "fb" && a != "ff") {
			ap, err := t.adornedProgram()
			if err != nil {
				return nil, err
			}
			if err := ap.ChainCheck(); err != nil {
				return nil, err
			}
			if f.tr, err = binchain.FromAdorned(ap, t.db.store); err != nil {
				return nil, err
			}
			prog, f.pred = f.tr.Program, f.tr.QueryPred
		}
		var err error
		if f.sys, err = equations.Transform(prog); err != nil {
			return nil, err
		}
		return f, nil
	})
}

// magicForm compiles the magic-sets rewriting of the adorned slice: the
// program a view maintains (see Materialized.buildLocked), restricted to
// the cone of its constants. No serving route runs it.
func (t *routes) magicForm() (*magic.Rewritten, error) {
	ap, err := t.adornedProgram()
	if err != nil {
		return nil, fmt.Errorf("magic: %w", err)
	}
	return magic.Rewrite(ap)
}

// route returns the plan strategy s compiles to for the template, or the
// error that rejects it — the same answer, and the same plan, however
// often it is asked.
func (t *routes) route(s Strategy) (plan, error) {
	if s <= Auto || s >= strategyCount {
		return nil, fmt.Errorf("chainlog: unhandled strategy %v", s)
	}
	return t.plans[s].get(func() (plan, error) {
		if s == Chain {
			return t.chainPlan()
		}
		pl := &bottomUpPlan{pred: t.tmpl.Pred, proj: t.proj, bound: newBoundVec(t.tmpl)}
		var err error
		if s == QSQNet {
			var net *qsqnet.Net
			if net, err = qsqnet.Compile(t.sub, t.tmpl.Pred, t.tmpl.Adornment()); err == nil {
				pl.prog = net.Program()
			}
		} else {
			pl.prog, err = bottomup.CompileProgram(t.sub)
		}
		if err != nil {
			return nil, err
		}
		return pl, nil
	})
}

// chainPlan builds the traversal engine over the compiled chain form. A
// run brings its own cap and worker count, so the engine takes no options.
func (t *routes) chainPlan() (plan, error) {
	f, err := t.chainForm()
	if err != nil {
		return nil, err
	}
	var free []ast.Term
	for _, a := range t.tmpl.Args {
		if a.IsVar() {
			free = append(free, a)
		}
	}
	pl := &chainPlan{pred: f.pred, bound: newBoundVec(t.tmpl), tr: f.tr, proj: newProjection(free)}
	sys, src := f.sys, chaineval.Source(chaineval.StoreSource{Store: t.db.store})
	switch {
	case f.tr != nil:
		// The engine only compiles: each call runs it over a run of its
		// own, which numbers the call's tuple terms.
		src = nil
	case t.tmpl.Adornment() == "fb":
		// p(X, b) is the paper's r(b, Y), r the inverse of p: a forward
		// query over the reversed system.
		sys = sys.Reverse()
	case t.tmpl.Adornment() == "ff":
		pl.all = true
	}
	pl.eng = chaineval.New(sys, src, chaineval.Options{})
	pl.eng.Precompile(f.pred)
	return pl, nil
}

// programEquations renders the Lemma 1 equation system of the whole
// program — what Explain shows without a query — or nothing when the
// program is not a binary-chain program. The caller holds db.mu.
func (db *DB) programEquations() (string, error) {
	if !analysis.Analyze(db.prog).BinaryChainProgram() {
		return "", nil
	}
	sys, err := equations.Transform(db.prog)
	if err != nil {
		return "", err
	}
	return lemma1Text(sys), nil
}

// lemma1Text is Explain's rendering of an equation system.
func lemma1Text(sys *equations.System) string {
	return fmt.Sprintf("Lemma 1 equation system (%d loop iterations):\n%s\n", sys.Iterations, sys.Render())
}

// boundVec is a template's bound-argument vector: the bound-position
// values in query-literal order, with the positions the run's parameters
// fill. Plans compiled per binding pattern (Section 4, the QSQ net) build
// it once at Prepare.
type boundVec struct {
	vals  []symtab.Sym // symtab.None at '?' holes
	holes []int        // holes[k] is the position in vals of run parameter k
}

func newBoundVec(tmpl ast.Query) boundVec {
	var b boundVec
	for _, a := range tmpl.Args {
		if a.IsVar() {
			continue
		}
		if a.IsHole() {
			b.holes = append(b.holes, len(b.vals))
			b.vals = append(b.vals, symtab.None)
		} else {
			b.vals = append(b.vals, a.Const)
		}
	}
	return b
}

// fill appends the vector to dst with the run's parameters in its holes.
func (b boundVec) fill(dst, args []symtab.Sym) []symtab.Sym {
	n := len(dst)
	dst = append(dst, b.vals...)
	for k, i := range b.holes {
		dst[n+i] = args[k]
	}
	return dst
}

// basePlan answers extensional-predicate queries by index lookup.
type basePlan struct {
	tmpl  ast.Query
	bound boundVec
	proj  projection
}

func (pl *basePlan) run(ctx context.Context, db *DB, _, _ int, argSets [][]symtab.Sym, out []SymRows) (int64, error) {
	r := db.store.Relation(pl.tmpl.Pred)
	if r != nil && r.Arity() != pl.tmpl.Arity() {
		return 0, fmt.Errorf("chainlog: query arity %d does not match %s/%d", pl.tmpl.Arity(), pl.tmpl.Pred, r.Arity())
	}
	mask := pl.proj.boundMask()
	return db.eachBinding(ctx, argSets, out, func(args []symtab.Sym, row *SymRows) error {
		bound := pl.bound.fill(nil, args)
		if r != nil {
			row.Stats.Lookups = 1
		}
		// The tuple a probe hands out may be its scratch: keep a copy.
		var tuples [][]symtab.Sym
		row.Stats.FactsConsulted = int64(r.MatchEach(mask, bound, nil, func(t []symtab.Sym) { tuples = append(tuples, slices.Clone(t)) }))
		row.Cells, row.n = project(&pl.proj, row.Cells, tuples, bound)
		return nil
	})
}

// chainPlan is the paper's algorithm over a precompiled engine: a
// binary-chain query evaluated by graph traversal from a start term bound
// at run time. A query that is binary-chain as it stands (bf, fb, ff) is
// the direct route — the start term is the bound constant and an answer
// term is the answer; on fb the engine's system is the reversed one, so
// it runs p(b, Y) too. Any other chain query is the same traversal over
// its Section 4 transformation (tr): the start term is the tuple term
// t(c̄) of the bound vector and an answer term the tuple of the free
// positions' values, both numbered by the call's own run of tr. ff (all)
// enumerates the active domain as start terms instead, each answer a
// (start, answer) pair.
type chainPlan struct {
	eng   *chaineval.Engine
	pred  string // the engine's query predicate: p, or bin_p^a
	bound boundVec
	tr    *binchain.Transformed // nil on the direct route
	all   bool
	// proj maps an answer's columns — the answer, the (start, answer)
	// pair, or the tuple's elements — onto the template's free variables:
	// p(X, X) keeps the diagonal.
	proj projection
	// idle holds a Section 4 plan's calls between uses, their tables'
	// capacity kept; mu guards it. (A sync.Pool would keep a dropped plan
	// alive in its registry until two collections pass.)
	mu   sync.Mutex
	idle []*section4Call
}

// section4Call is a Section 4 call: the run of tr that numbers its tuple
// terms, and the plan's engine over it.
type section4Call struct {
	binchain.Run
	eng *chaineval.Engine
}

// start is a run's start term: the bound constant itself, or the tuple
// term t(c̄) of the bound vector in the call's run r.
func (pl *chainPlan) start(r *binchain.Run, args []symtab.Sym) symtab.Sym {
	if r != nil {
		return r.Bind(args)
	}
	if len(pl.bound.holes) > 0 {
		return args[0]
	}
	return pl.bound.vals[0]
}

// run evaluates one bound vector by one traversal, straight into its
// answer's cells on the direct route, and several as one engine batch,
// whose tally every answer of the batch carries, each on workers workers.
// ff has no bound vector: each vector enumerates the active domain as a
// batch of its own. A Section 4 call's tuple terms live as long as the
// call: it takes an idle call and empties its terms as it gives it back.
func (pl *chainPlan) run(ctx context.Context, db *DB, maxNodes, workers int, argSets [][]symtab.Sym, out []SymRows) (int64, error) {
	if pl.all {
		var facts int64
		for k := range out {
			domain := db.activeDomainLocked()
			answers, res, err := pl.eng.QueryBatchCtx(ctx, pl.pred, domain, maxNodes, workers)
			if err != nil {
				return 0, err
			}
			// The domain and each answer set ascend: the pairs come in order.
			total := 0
			for _, vs := range answers {
				total += len(vs)
			}
			out[k].Cells = slices.Grow(out[k].Cells, total*len(pl.proj.keep))
			for i, a := range domain {
				for _, v := range answers[i] {
					out[k].projectRow(&pl.proj, []symtab.Sym{a, v}, nil)
				}
			}
			out[k].Stats = chainStats(res)
			facts += res.Retrieved
		}
		return facts, nil
	}
	eng, r := pl.eng, (*binchain.Run)(nil)
	if pl.tr != nil {
		var c *section4Call
		pl.mu.Lock()
		if n := len(pl.idle); n > 0 {
			c, pl.idle = pl.idle[n-1], pl.idle[:n-1]
		}
		pl.mu.Unlock()
		if c == nil {
			c = &section4Call{Run: pl.tr.NewRun()}
			c.eng = pl.eng.Over(&c.Run)
		}
		defer func() {
			c.Reset()
			pl.mu.Lock()
			pl.idle = append(pl.idle, c)
			pl.mu.Unlock()
		}()
		eng, r = c.eng, &c.Run
	}
	if len(argSets) == 1 {
		s := pl.start(r, argSets[0])
		// A direct answer term is its row: the traversal appends it to the
		// caller's cells.
		var dst []symtab.Sym
		if r == nil {
			dst = out[0].Cells
		}
		terms, res, err := eng.QueryInto(ctx, pl.pred, s, dst, maxNodes, workers)
		if err != nil {
			return 0, err
		}
		pl.rows(r, &out[0], terms, chainStats(&res))
		return res.Retrieved, nil
	}
	starts := make([]symtab.Sym, len(argSets))
	for i, args := range argSets {
		starts[i] = pl.start(r, args)
	}
	answers, res, err := eng.QueryBatchCtx(ctx, pl.pred, starts, maxNodes, workers)
	if err != nil {
		return 0, err
	}
	st := chainStats(res)
	for i := range out {
		pl.rows(r, &out[i], answers[i], st)
	}
	return res.Retrieved, nil
}

// rows lays out one binding's answer terms as r's rows. A direct answer
// term is its one-column row, and the terms come distinct and in symbol
// order, so they are the cells as they stand; a Section 4 term is its
// tuple's elements in the call's run, projected.
func (pl *chainPlan) rows(run *binchain.Run, r *SymRows, terms []symtab.Sym, stats Stats) {
	r.Stats = stats
	if run == nil {
		r.Cells, r.n = terms, len(terms)
		return
	}
	r.Cells = slices.Grow(r.Cells, len(terms)*len(pl.proj.keep))
	for _, s := range terms {
		r.projectRow(&pl.proj, run.DecodeAnswer(s), nil)
	}
}

// bottomUpPlan runs a bottomup.Program per binding, on the program's
// pooled scratch, and reads the answer through the query predicate's
// bound index. The program is the QSQ net of the template's adornment,
// whose input is the binding, or the seminaive fixpoint of the slice of
// the program the query depends on, which recomputes the slice on every
// run because that full-evaluation cost is what this baseline measures.
// The facts are read from the live store per run, so fact churn needs no
// plan work at all.
type bottomUpPlan struct {
	prog *bottomup.Program
	// proj maps the tuples of pred, the query predicate, onto the answer
	// rows, and bound is the template's bound vector, which proj filters
	// by.
	pred  string
	proj  projection
	bound boundVec
}

func (pl *bottomUpPlan) run(ctx context.Context, db *DB, _, _ int, argSets [][]symtab.Sym, out []SymRows) (int64, error) {
	return db.eachBinding(ctx, argSets, out, func(args []symtab.Sym, r *SymRows) error {
		bound := pl.bound.fill(nil, args)
		stats, err := pl.prog.Each(ctx, db.store, pl.pred, pl.proj.boundMask(), bound, func(t []symtab.Sym) {
			r.projectRow(&pl.proj, t, bound)
		})
		if err != nil {
			return err
		}
		r.Stats = Stats{
			Iterations:     stats.Rounds,
			Nodes:          int(stats.Derived),
			Firings:        stats.Firings,
			FactsConsulted: stats.Retrieved,
			Lookups:        stats.Lookups,
		}
		return nil
	})
}
