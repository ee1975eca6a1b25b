package chainlog

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"chainlog/internal/automaton"
	"chainlog/internal/edb"
	"chainlog/internal/equations"
	"chainlog/internal/naiveeval"
	"chainlog/internal/optimizer"
	"chainlog/internal/symtab"
)

const tcSrc = `
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(a, b).
edge(b, c).
edge(c, d).
edge(d, e).
edge(e, f).
`

// Auto (the Options zero value) routes through the cost-based optimizer:
// the plan records a decision with every rejected alternative (seminaive
// and qsqnet lose to chain here), and run stats report the strategy
// actually executed, never "auto".
func TestAutoStrategyChoosesAndReports(t *testing.T) {
	db := mustDB(t, tcSrc)
	p, err := db.Prepare("tc(?, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	pc := p.Plan()
	if pc.Pinned {
		t.Fatal("Options{} (Auto) must not report a pinned plan")
	}
	if len(pc.Rejected) != 2 {
		t.Fatalf("want 2 rejected alternatives, got %+v", pc.Rejected)
	}
	if pc.Cost <= 0 || pc.Reason == "" {
		t.Fatalf("decision not recorded: %+v", pc)
	}
	ans, err := p.Run("a")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Stats.Strategy == Auto {
		t.Fatal("run stats must report the effective strategy, not auto")
	}
	if ans.Stats.Strategy != pc.Strategy {
		t.Fatalf("stats strategy %v != plan strategy %v", ans.Stats.Strategy, pc.Strategy)
	}
	if got := len(ans.Rows); got != 5 {
		t.Fatalf("tc(a, Y) rows = %d, want 5", got)
	}
}

// The optimizer's relation counts are counted on demand and cached per
// relation version: a query, a write that changes nothing and a write to
// another relation read the cache; a write to the relation and a store
// swap count it again. A relation wider than binary is counted per column.
func TestRelStatsCache(t *testing.T) {
	db := mustDB(t, tcSrc+"t(a, x, p).\nt(a, y, p).\nt(b, y, p).\n")
	counts := func(name string) *optimizer.Rel {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return db.relStats.of(db.store.Relation(name))
	}
	e := counts("edge")
	if e.Arity != 2 || e.Tuples != 5 || e.OutKeys != 5 || e.InKeys != 5 || e.Distinct != nil {
		t.Fatalf("edge counted as %+v", e)
	}
	if w := counts("t"); w.Arity != 3 || w.Tuples != 3 || !slices.Equal(w.Distinct, []int{2, 2, 1}) {
		t.Fatalf("t counted as %+v, want 3 tuples and distinct [2 2 1]", w)
	}

	p, err := db.Prepare("tc(?, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Assert("edge", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Assert("t", "c", "z", "p"); err != nil {
		t.Fatal(err)
	}
	if counts("edge") != e {
		t.Fatal("edge was counted again though it did not change")
	}

	if _, err := db.Assert("edge", "f", "a"); err != nil {
		t.Fatal(err)
	}
	e2 := counts("edge")
	if e2 == e || e2.Tuples != 6 || e2.OutKeys != 6 || e2.InKeys != 6 {
		t.Fatalf("after a write edge reads %+v, want a fresh count of 6 tuples and 6 keys each way", e2)
	}

	// The swapped-in relation has the old one's version and size, so only
	// the swap's clear tells them apart.
	// A star a -> n0..n5, built as a program's facts are and then written
	// once, as edge was.
	old := db.Store().Relation("edge")
	s := edb.NewStore(db.SymTab())
	a := db.Intern("a")
	var star []symtab.Sym
	for i := range 5 {
		star = append(star, a, db.Intern(fmt.Sprint("n", i)))
	}
	if _, err := s.BuildBinary("edge", star); err != nil {
		t.Fatal(err)
	}
	s.Insert("edge", a, db.Intern("n5"))
	if r := s.Relation("edge"); r.Version() != old.Version() || r.Len() != old.Len() {
		t.Fatalf("fixture: swapped-in relation has version %d and %d tuples, want %d and %d", r.Version(), r.Len(), old.Version(), old.Len())
	}
	db.SetStore(s)
	if e3 := counts("edge"); e3 == e2 || e3.OutKeys != 1 || e3.InKeys != 6 {
		t.Fatalf("after a store swap edge reads %+v, want a fresh count of 1 out-key and 6 in-keys", e3)
	}
}

// A service that only streams still feeds the optimizer: a chain plan run
// through RunSymsFunc alone records its work like any other run.
func TestStreamedRunsRecordWork(t *testing.T) {
	db := mustDB(t, tcSrc)
	p, err := db.Prepare("tc(?, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Plan().Strategy; got != Chain {
		t.Fatalf("tc(?, Y) runs on %v, want chain", got)
	}
	a, _ := db.SymTab().Lookup("a")
	rows := 0
	if err := p.RunSymsFunc(func([]symtab.Sym) { rows++ }, a); err != nil {
		t.Fatal(err)
	}
	if rows != 5 {
		t.Fatalf("tc(a, Y) streamed %d rows, want 5", rows)
	}
	if w := p.Plan().ObservedWork; w <= 0 {
		t.Fatalf("ObservedWork after a streamed run = %v, want > 0", w)
	}
}

// Auto answers must agree with every pinned answer-equivalent strategy.
func TestAutoMatchesPinnedAnswers(t *testing.T) {
	db := mustDB(t, tcSrc)
	auto, err := db.QueryOpts("tc(b, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Strategies()[1:] {
		pinned, err := db.QueryOpts("tc(b, Y)", Options{Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(auto.Rows, pinned.Rows) {
			t.Fatalf("auto rows %v != %v rows %v", auto.Rows, s, pinned.Rows)
		}
		if pinned.Stats.Strategy != s {
			t.Fatalf("pinned run reported strategy %v, want %v", pinned.Stats.Strategy, s)
		}
	}
}

// A named Options.Strategy is a pin, not a hint: the optimizer must not
// run at all, and both Plan() and explain output must say so.
func TestPinnedStrategyBypassesOptimizer(t *testing.T) {
	db := mustDB(t, tcSrc)
	p, err := db.Prepare("tc(?, Y)", Options{Strategy: Seminaive})
	if err != nil {
		t.Fatal(err)
	}
	pc := p.Plan()
	if !pc.Pinned {
		t.Fatal("explicit Strategy must report Pinned")
	}
	if pc.Strategy != Seminaive {
		t.Fatalf("pinned strategy = %v, want seminaive", pc.Strategy)
	}
	if pc.Cost != 0 || len(pc.Rejected) != 0 {
		t.Fatalf("pinned plan must not carry optimizer output: %+v", pc)
	}
	if !strings.Contains(pc.Reason, "pinned by Options.Strategy (optimizer bypassed)") {
		t.Fatalf("pinned reason wording: %q", pc.Reason)
	}
	ans, err := p.Run("a")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Stats.Strategy != Seminaive {
		t.Fatalf("pinned run executed %v", ans.Stats.Strategy)
	}

	out, err := db.ExplainOpts("tc(a, Y)", Options{Strategy: Seminaive})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "strategy seminaive pinned by Options.Strategy (optimizer bypassed)") {
		t.Fatalf("ExplainOpts missing pin wording:\n%s", out)
	}

	// A pinned plan never re-optimizes, whatever the churn.
	base := db.Reoptimizations()
	for i := 0; i < 50; i++ {
		db.Assert("edge", fmt.Sprintf("p%d", i), fmt.Sprintf("p%d", i+1))
	}
	if _, err := p.Run("a"); err != nil {
		t.Fatal(err)
	}
	if db.Reoptimizations() != base {
		t.Fatal("pinned plan re-optimized")
	}
}

// Explain under default options renders the optimizer's decision.
func TestExplainShowsPlanChoice(t *testing.T) {
	db := mustDB(t, tcSrc)
	out, err := db.Explain("tc(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "plan choice:") || !strings.Contains(out, "chosen: ") {
		t.Fatalf("Explain missing plan choice section:\n%s", out)
	}
	if strings.Count(out, "rejected: ") != 2 {
		t.Fatalf("Explain should list rejected alternatives:\n%s", out)
	}
	if !strings.Contains(out, "adornment: bf") {
		t.Fatalf("Explain should report the query's binding pattern:\n%s", out)
	}
	// No query: program rendering only, no plan section.
	out, err = db.Explain("")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "plan choice:") {
		t.Fatalf("query-less Explain should have no plan section:\n%s", out)
	}
	// Extensional predicate: no decision to show.
	out, err = db.Explain("edge(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "plan choice:") {
		t.Fatalf("extensional Explain should have no plan section:\n%s", out)
	}
}

// A fact burst past the drift floors triggers exactly one
// re-optimization at the next run; further runs without churn do not
// re-optimize, and small churn never triggers at all.
func TestReoptimizeOnDrift(t *testing.T) {
	db := mustDB(t, tcSrc)
	p, err := db.Prepare("tc(?, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run("a"); err != nil {
		t.Fatal(err)
	}
	base := db.Reoptimizations()

	// A couple of asserts: below DriftMinTuples, no re-optimization.
	db.Assert("edge", "f", "g")
	db.Assert("edge", "g", "h")
	if _, err := p.Run("a"); err != nil {
		t.Fatal(err)
	}
	if got := db.Reoptimizations(); got != base {
		t.Fatalf("small churn re-optimized: %d -> %d", base, got)
	}

	// A burst well past both floors: exactly one re-optimization on the
	// next run, none on the run after.
	for i := 0; i < 30; i++ {
		db.Assert("edge", fmt.Sprintf("x%d", i), fmt.Sprintf("x%d", i+1))
	}
	transformsBefore := equations.TransformCount()
	compilesBefore := automaton.CompileCount()
	if _, err := p.Run("a"); err != nil {
		t.Fatal(err)
	}
	if got := db.Reoptimizations(); got != base+1 {
		t.Fatalf("burst should re-optimize exactly once: %d -> %d", base, got)
	}
	if _, err := p.Run("a"); err != nil {
		t.Fatal(err)
	}
	if got := db.Reoptimizations(); got != base+1 {
		t.Fatalf("second run after burst re-optimized again: %d", got)
	}
	// Re-optimization reuses compiled plans: the equation transformation
	// and automaton compilation must not have run again.
	if d := equations.TransformCount() - transformsBefore; d != 0 {
		t.Fatalf("re-optimization re-transformed %d times", d)
	}
	if d := automaton.CompileCount() - compilesBefore; d != 0 {
		t.Fatalf("re-optimization re-compiled %d automata", d)
	}
	if pc := p.Plan(); pc.Reoptimizations != 1 {
		t.Fatalf("handle-level reopt count = %d, want 1", pc.Reoptimizations)
	}
}

// Wildly divergent observed work flags the plan, and the next fact-epoch
// refresh re-optimizes even without cardinality drift.
func TestObserveFeedbackTriggersReopt(t *testing.T) {
	db := mustDB(t, tcSrc)
	p, err := db.Prepare("tc(?, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run("a"); err != nil {
		t.Fatal(err)
	}
	base := db.Reoptimizations()
	// Report observed work far past the estimate (and past the absolute
	// feedback floor). A single fact nudge moves the fact epoch without
	// tripping the drift floors, isolating the feedback path.
	for i := 0; i < 8; i++ {
		p.recordWork(p.cur.Load(), 1<<20)
	}
	db.Assert("edge", "z1", "z2")
	if _, err := p.Run("a"); err != nil {
		t.Fatal(err)
	}
	if got := db.Reoptimizations(); got != base+1 {
		t.Fatalf("feedback should force one re-optimization: %d -> %d", base, got)
	}
}

// A route whose estimate proves badly wrong at run time must be
// abandoned for the measured-cheapest alternative — and must not be
// flipped back to, because its measured cost survives re-optimization.
//
// The shape: same-carrier connectivity over a single-carrier cycle. The
// free head variable C in the in group fails the chain condition, so the
// contest is the binding-directed net vs seminaive; the model predicts
// the bound seed restricts the traversal, but on a cycle everything is
// reachable, so the goal-directed route degenerates to the full closure
// plus its own overhead. Observed work feeds back
// after each mispredicted route runs, every measured route is re-costed
// from its measurement, and the plan settles on the cheapest priced
// route — seminaive, whose model (the full closure at the seminaive
// per-fact rate) undercuts the recalibrated cost of the net, which
// consults as many facts at 1.2x the rate — without ping-ponging, because
// a measured route keeps its measured cost.
func TestFeedbackFlipsToMeasuredBest(t *testing.T) {
	db := NewDB()
	if err := db.LoadProgram(`cnx2(S, D, C) :- flight2(S, D, C).
cnx2(S, D, C) :- flight2(S, H, C), cnx2(H, D, C).`); err != nil {
		t.Fatal(err)
	}
	const n = 80
	for i := 0; i < n; i++ {
		db.Assert("flight2", fmt.Sprintf("a%d", i), fmt.Sprintf("a%d", (i+1)%n), "acme")
	}
	p, err := db.Prepare("cnx2(?, D, C)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pc := p.Plan(); pc.Strategy != QSQNet {
		t.Fatalf("the model should start from a binding-directed route on a bound query, got %v", pc.Strategy)
	}
	first, err := p.Run("a0")
	if err != nil {
		t.Fatal(err)
	}
	// Each run observes far more retrievals than its route's estimate;
	// the next run re-optimizes at entry — no fact mutation required —
	// and the contest re-prices from measurements. The optimistic model
	// estimates fall in turn until every surviving price is honest.
	again := first
	var reopts uint64
	for i := 0; i < 4; i++ {
		if pc := p.Plan(); pc.Reoptimizations == reopts && i > 0 {
			break // no re-optimization on the last run: settled
		} else {
			reopts = pc.Reoptimizations
		}
		again, err = p.Run("a0")
		if err != nil {
			t.Fatal(err)
		}
	}
	pc := p.Plan()
	if pc.Strategy != Seminaive {
		t.Fatalf("feedback should settle on the fixpoint once both binding-directed routes are priced from their runs, got %v (reason %q)", pc.Strategy, pc.Reason)
	}
	if pc.Reoptimizations == 0 {
		t.Fatal("the mispredictions must be counted as re-optimizations")
	}
	for _, r := range pc.Rejected {
		if !strings.Contains(r.Detail, "recalibrated from") {
			t.Fatalf("both binding-directed routes ran and must carry their measured costs: %+v", pc.Rejected)
		}
	}
	// The settled route is the one whose model was never optimistic: it
	// prices the full closure, its run consults exactly that, so feedback
	// has nothing to recalibrate and the price stays the model's.
	if strings.Contains(pc.Reason, "recalibrated from") || pc.EstWork != float64(again.Stats.FactsConsulted) {
		t.Fatalf("the settled route's model (%.0f facts, %q) should be what it consults (%d)", pc.EstWork, pc.Reason, again.Stats.FactsConsulted)
	}
	if !reflect.DeepEqual(first.Rows, again.Rows) {
		t.Fatal("re-optimization changed the answer")
	}
	// Stable: further runs see estimate ≈ observation and stay put.
	settled := pc.Reoptimizations
	for i := 0; i < 3; i++ {
		if _, err := p.Run("a0"); err != nil {
			t.Fatal(err)
		}
	}
	if pc := p.Plan(); pc.Strategy != Seminaive || pc.Reoptimizations != settled {
		t.Fatalf("plan should settle: %v after %d reoptimizations (settled at %d)", pc.Strategy, pc.Reoptimizations, settled)
	}
}

// Plan().Parallel and Explain say how wide the next run runs. A run
// reads the optimizer's current verdict, so when a re-optimization moves
// EstWork across optimizer.ParallelMinWork — up or down — the record
// follows the new decision and the next run uses the width it gives.
func TestPlanParallelSaysWhatRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	edges := func(db *DB, lo, hi int, retract bool) {
		d := &Delta{}
		for i := lo; i < hi; i++ {
			if a, b := fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1); retract {
				d.Retract("edge", a, b)
			} else {
				d.Assert("edge", a, b)
			}
		}
		db.Apply(d)
	}
	for _, c := range []struct {
		name     string
		from, to int
	}{{"up", 8, 600}, {"down", 600, 8}} {
		t.Run(c.name, func(t *testing.T) {
			db := mustDB(t, "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n")
			edges(db, 0, c.from, false)
			p, err := db.Prepare("tc(X, Y)", Options{})
			if err != nil {
				t.Fatal(err)
			}
			built := p.Plan()
			if built.Strategy != Chain || built.Parallel != (c.from > c.to) {
				t.Fatalf("the chain route should be built %s: %+v", map[bool]string{true: "parallel", false: "sequential"}[c.from > c.to], built)
			}
			edges(db, min(c.from, c.to), max(c.from, c.to), c.to < c.from)
			ans, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			if want := c.to * (c.to + 1) / 2; len(ans.Rows) != want {
				t.Fatalf("%d rows, want %d", len(ans.Rows), want)
			}
			now := p.Plan()
			if now.Reoptimizations != 1 || now.Strategy != Chain {
				t.Fatalf("the drift should re-optimize once and keep the chain route: %+v", now)
			}
			if now.Parallel != p.cur.Load().decision.Parallel || now.Parallel == built.Parallel {
				t.Errorf("Plan().Parallel = %v after EstWork moved to %.0f; the new decision says %v, the plan was built %v", now.Parallel, now.EstWork, p.cur.Load().decision.Parallel, built.Parallel)
			}
			if out := p.cur.Load().decision.Describe(); strings.Contains(out, "parallel traversal") != now.Parallel {
				t.Errorf("the decision Explain prints disagrees with Plan().Parallel = %v:\n%s", now.Parallel, out)
			}
			workers := p.cur.Load().workers
			if (workers > 1) != now.Parallel {
				t.Errorf("the next run uses %d workers, but Plan().Parallel = %v", workers, now.Parallel)
			}
			again, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again.Rows, ans.Rows) {
				t.Errorf("a run at the new width answered %d rows, the first %d", len(again.Rows), len(ans.Rows))
			}
		})
	}
}

func rejectedDetails(pc PlanChoice) []string {
	var out []string
	for _, r := range pc.Rejected {
		out = append(out, r.Detail)
	}
	return out
}

// A bound tc(?, Y) left to the optimizer over a graph whose traversal
// levels pass the engine's 128-node sharding threshold is served by a
// parallel chain plan, and through random deltas it answers exactly as
// a pinned (sequential) Chain handle and the reference evaluator do.
// The plan must be parallel by measurement: a run reads the verdict of
// the optimizer's latest decision, which costs a measured route at its
// observed retrievals, so every run has to retrieve more than
// ParallelMinWork tuples — a light start would pull the average below
// it. The graph's core is a complete digraph on 262 nodes, self-loops
// included (68,644 edges): a run from a core node reaches the whole
// core at level one and retrieves every core edge. That is about the
// least a run past ParallelMinWork can reach, which keeps the reference
// evaluator affordable: its join indexes the edges by source and probes
// once per reached node. The reference keeps one mirror of the edge set,
// brought along by each delta's own asserts and retracts, and evaluates
// only the small reachability program per constant. The deltas retract
// random edges and add edges into a tail of 30 nodes outside the core,
// so the answers move from round to round. Meaningful under -race too.
func TestServedPlanShards(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const core, tail = 262, 30
	rng := rand.New(rand.NewSource(38))
	db := mustDB(t, "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n")
	// edges lists the graph's edges; has is the same set.
	var edges [][2]int
	has := map[[2]int]bool{}
	add := func(d *Delta, e [2]int) {
		if !has[e] {
			has[e] = true
			edges = append(edges, e)
			d.Assert("edge", fmt.Sprintf("v%d", e[0]), fmt.Sprintf("v%d", e[1]))
		}
	}
	// facts mirrors the edge set for the reference evaluator: apply
	// replays each delta's operations on it, in order, after db.Apply.
	facts := naiveeval.NewFacts()
	apply := func(d *Delta) {
		db.Apply(d)
		for _, op := range d.ops {
			args := []symtab.Sym{db.SymTab().Intern(op.Args[0]), db.SymTab().Intern(op.Args[1])}
			if op.Retract {
				facts.Retract(op.Pred, args)
			} else {
				facts.Assert(op.Pred, args)
			}
		}
	}
	d := &Delta{}
	for u := range core {
		for v := range core {
			add(d, [2]int{u, v})
		}
	}
	apply(d)

	served, err := db.Prepare("tc(?, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := db.Prepare("tc(?, Y)", Options{Strategy: Chain})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round <= 10; round++ {
		if round > 0 {
			// A delta: retract three edges, then assert three into the
			// tail, from any node.
			d := &Delta{}
			for i := 0; i < 3; i++ {
				k := rng.Intn(len(edges))
				e := edges[k]
				edges[k] = edges[len(edges)-1]
				edges = edges[:len(edges)-1]
				delete(has, e)
				d.Retract("edge", fmt.Sprintf("v%d", e[0]), fmt.Sprintf("v%d", e[1]))
			}
			for i := 0; i < 3; i++ {
				add(d, [2]int{rng.Intn(core + tail), core + rng.Intn(tail)})
			}
			apply(d)
		}
		pc := served.Plan()
		if pc.Strategy != Chain || !pc.Parallel {
			t.Fatalf("round %d: the served plan should be a parallel chain: %+v", round, pc)
		}
		if round > 0 && pc.ObservedWork <= float64(optimizer.ParallelMinWork) {
			t.Fatalf("round %d: the runs retrieved %.0f tuples each, not enough to be parallel by measurement", round, pc.ObservedWork)
		}
		for _, c := range []string{fmt.Sprintf("v%d", rng.Intn(core)), fmt.Sprintf("v%d", rng.Intn(core))} {
			got, err := served.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			want, err := pinned.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("round %d: tc(%s, Y) served %v, pinned chain %v", round, c, got.Rows, want.Rows)
			}
			// tc(c, Y) is the set of nodes reachable from c.
			reach := fmt.Sprintf("r(Y) :- edge(%s, Y).\nr(Y) :- r(X), edge(X, Y).\n", c)
			if oracle := naiveAnswer(t, db, reach, facts, "r(Y)"); len(got.Rows)+len(oracle) > 0 && !reflect.DeepEqual(got.Rows, oracle) {
				t.Fatalf("round %d: tc(%s, Y) served %v, reference %v", round, c, got.Rows, oracle)
			}
		}
	}
}
