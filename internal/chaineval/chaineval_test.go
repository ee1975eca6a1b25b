package chaineval

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"chainlog/internal/automaton"
	"chainlog/internal/edb"
	"chainlog/internal/equations"
	"chainlog/internal/expr"
	"chainlog/internal/paper/rel"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

func sgEngine(t *testing.T, store *edb.Store, opts Options) *Engine {
	t.Helper()
	st := store.SymTab()
	res := parser.MustParse(workload.SGProgram, st)
	sys, err := equations.Transform(res.Program)
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	return New(sys, StoreSource{Store: store}, opts)
}

func names(st *symtab.Table, syms []symtab.Sym) []string {
	out := make([]string, len(syms))
	for i, s := range syms {
		out[i] = st.Name(s)
	}
	return out
}

// --- Figure 7 sample shapes (experiment E2) ---

// Sample (a): two iterations; the flat hub collapses to one node; O(n)
// total nodes.
func TestSampleAShape(t *testing.T) {
	st := symtab.NewTable()
	w := workload.SampleA(st, 50)
	eng := sgEngine(t, w.Store, Options{})
	res, err := eng.Query("sg", w.Query)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 2 {
		t.Fatalf("iterations = %d, want 2", res.Iterations)
	}
	if len(res.Answers) != 50 {
		t.Fatalf("answers = %d, want 50", len(res.Answers))
	}
	// O(n) nodes: bounded by a small multiple of n (TestOneProbePerNode
	// has the exact count).
	if res.Nodes > 12*50 {
		t.Fatalf("nodes = %d, expected O(n)", res.Nodes)
	}
}

// Sample (b): n iterations; Θ(n²) nodes.
func TestSampleBShape(t *testing.T) {
	st := symtab.NewTable()
	n := 40
	w := workload.SampleB(st, n)
	eng := sgEngine(t, w.Store, Options{})
	res, err := eng.Query("sg", w.Query)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != n {
		t.Fatalf("iterations = %d, want %d", res.Iterations, n)
	}
	if res.Nodes < n*n/8 {
		t.Fatalf("nodes = %d, expected Θ(n²) growth", res.Nodes)
	}
}

// Sample (c): n iterations but O(n) nodes — the spine is shared.
func TestSampleCShape(t *testing.T) {
	st := symtab.NewTable()
	n := 60
	w := workload.SampleC(st, n)
	eng := sgEngine(t, w.Store, Options{})
	res, err := eng.Query("sg", w.Query)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != n {
		t.Fatalf("iterations = %d, want %d", res.Iterations, n)
	}
	if res.Nodes > 12*n {
		t.Fatalf("nodes = %d, expected O(n)", res.Nodes)
	}
	if !res.Converged {
		t.Fatal("acyclic sample did not converge")
	}
}

// Growth-shape comparison: sample (b) node counts grow ~quadratically,
// samples (a) and (c) ~linearly, when n doubles.
func TestGrowthShapes(t *testing.T) {
	nodesFor := func(gen func(*symtab.Table, int) *workload.SG, n int) int {
		st := symtab.NewTable()
		w := gen(st, n)
		eng := sgEngine(t, w.Store, Options{})
		res, err := eng.Query("sg", w.Query)
		if err != nil {
			t.Fatal(err)
		}
		return res.Nodes
	}
	for _, tc := range []struct {
		name     string
		gen      func(*symtab.Table, int) *workload.SG
		minRatio float64
		maxRatio float64
	}{
		{"sampleA", workload.SampleA, 1.5, 2.6},
		{"sampleB", workload.SampleB, 3.0, 4.8},
		{"sampleC", workload.SampleC, 1.5, 2.6},
	} {
		n1 := nodesFor(tc.gen, 64)
		n2 := nodesFor(tc.gen, 128)
		ratio := float64(n2) / float64(n1)
		if ratio < tc.minRatio || ratio > tc.maxRatio {
			t.Errorf("%s: nodes(128)/nodes(64) = %.2f, want in [%.1f, %.1f]",
				tc.name, ratio, tc.minRatio, tc.maxRatio)
		}
	}
}

// --- Figure 8: cyclic data (experiment E3) ---

func TestCyclicNeedsMNIterations(t *testing.T) {
	st := symtab.NewTable()
	m, n := 3, 4 // coprime
	w := workload.Cyclic(st, m, n)
	eng := sgEngine(t, w.Store, Options{})
	res, err := eng.Query("sg", w.Query)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.BoundStopped {
		t.Fatalf("cyclic run should stop via the m·n bound: %+v", res)
	}
	// With gcd(m,n)=1 every down-cycle node is an answer.
	if len(res.Answers) != n {
		t.Fatalf("answers = %d, want %d", len(res.Answers), n)
	}
	// The complete answer needs ~m·n iterations: the last new answer must
	// appear late (> (m-1)*(n-1) iterations in).
	if res.AnswerCompleteAt <= (m-1)*(n-1) {
		t.Fatalf("answer completed at iteration %d, expected > %d", res.AnswerCompleteAt, (m-1)*(n-1))
	}
	if res.AnswerCompleteAt > m*n+1 {
		t.Fatalf("answer completed at iteration %d, expected <= %d", res.AnswerCompleteAt, m*n+1)
	}
}

func TestCyclicWithoutGuardHitsCap(t *testing.T) {
	st := symtab.NewTable()
	w := workload.Cyclic(st, 3, 4)
	eng := sgEngine(t, w.Store, Options{MaxIterations: 7, DisableCyclicGuard: true})
	res, err := eng.Query("sg", w.Query)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("capped run reported convergence")
	}
	if res.Iterations != 7 {
		t.Fatalf("iterations = %d, want cap 7", res.Iterations)
	}
}

func TestCyclicCoprimePairs(t *testing.T) {
	for _, mn := range [][2]int{{2, 3}, {3, 5}, {4, 7}, {5, 6}} {
		st := symtab.NewTable()
		w := workload.Cyclic(st, mn[0], mn[1])
		eng := sgEngine(t, w.Store, Options{})
		res, err := eng.Query("sg", w.Query)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) != mn[1] {
			t.Fatalf("m=%d n=%d: answers = %d, want %d", mn[0], mn[1], len(res.Answers), mn[1])
		}
	}
	// Non-coprime: only every gcd-th node is reachable.
	st := symtab.NewTable()
	w := workload.Cyclic(st, 2, 4)
	eng := sgEngine(t, w.Store, Options{})
	res, err := eng.Query("sg", w.Query)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 { // b0, b2: indices ≡ 0 mod 2
		t.Fatalf("m=2 n=4: answers = %v", names(st, res.Answers))
	}
}

// The cyclic guard's M(e1*) and M(e0·e2*) are only traversed, never
// spliced, so Final is the state of the class that holds its terms: on
// Fig. 8's sg, D1 and D2 come out of up* and flat.down* with the same
// terms and the same probes as with a sink Final, and fewer nodes. sg's
// own M(e_sg), which expansion splices, keeps its sink.
func TestCyclicGuardFinalIsAState(t *testing.T) {
	for _, mn := range [][2]int{{3, 4}, {5, 7}, {9, 11}} {
		st := symtab.NewTable()
		w := workload.Cyclic(st, mn[0], mn[1])
		eng := sgEngine(t, w.Store, Options{})
		c, err := eng.compiled("sg")
		if err != nil {
			t.Fatal(err)
		}
		if len(c.m.Edges(c.m.Final)) != 0 {
			t.Fatalf("M(e_sg) has transitions out of Final:\n%s", c.m)
		}
		shape, _ := eng.sys.LinearDecompose("sg")
		sink1 := eng.annotate(automaton.Compile(expr.NewStar(shape.E1)))
		sink2 := eng.annotate(automaton.Compile(expr.NewConcat(shape.E0, expr.NewStar(shape.E2))))
		reach := func(d1, d2 *automaton.NFA) (m, n, nodes int, lookups int64) {
			r := acquireScratch()
			defer releaseScratch(r)
			r.rels, r.work, r.maxNodes = eng.rels, edb.Counters{}, 0
			r.terms = append(r.terms[:0], w.Query)
			if err := eng.reach(r, d1); err != nil {
				t.Fatal(err)
			}
			m, nodes = r.finals, r.G.count
			r.terms = r.G.appendState(r.terms[:0], d1.Final)
			if err := eng.reach(r, d2); err != nil {
				t.Fatal(err)
			}
			return m, r.finals, nodes + r.G.count, r.work.Lookups
		}
		m, n, nodes, lookups := reach(c.d1, c.d2)
		sm, sn, snodes, slookups := reach(sink1, sink2)
		if m != mn[0] || n != mn[1] || sm != m || sn != n || lookups != slookups {
			t.Fatalf("(%d,%d): |D1|, |D2|, lookups = %d, %d, %d; with a sink Final %d, %d, %d", mn[0], mn[1], m, n, lookups, sm, sn, slookups)
		}
		if nodes >= snodes {
			t.Fatalf("(%d,%d): %d nodes, %d with a sink Final", mn[0], mn[1], nodes, snodes)
		}
	}
}

// A regular equation that another equation mentions is spliced into that
// one's EM hierarchy, so it keeps a sink Final; one that nothing mentions
// gets Final merged.
func TestSplicedRegularKeepsSinkFinal(t *testing.T) {
	st := symtab.NewTable()
	store := edb.NewStore(st)
	for _, f := range [][3]string{{"a", "x0", "x1"}, {"e", "x1", "x2"}, {"e", "x2", "x3"}, {"b", "x2", "y2"}, {"b", "x3", "y3"}} {
		store.Insert(f[0], st.Intern(f[1]), st.Intern(f[2]))
	}
	sys := &equations.System{Order: []string{"p", "q", "r"}, Derived: map[string]bool{"p": true, "q": true, "r": true},
		Eq: map[string]expr.Expr{"p": expr.MustParse("c U a.q.b"), "q": expr.MustParse("e*.e"), "r": expr.MustParse("e*.e")}}
	eng := New(sys, StoreSource{Store: store}, Options{})
	res, err := eng.Query("p", st.Intern("x0"))
	if err != nil {
		t.Fatal(err)
	}
	if got := names(st, res.Answers); !slices.Equal(got, []string{"y2", "y3"}) || res.Expansions != 1 {
		t.Fatalf("p(x0, Y) = %v after %d expansions, want [y2 y3] after 1", got, res.Expansions)
	}
	if q, r := eng.Automaton("q"), eng.Automaton("r"); len(q.Edges(q.Final)) != 0 || len(r.Edges(r.Final)) == 0 {
		t.Fatalf("spliced q:\n%sunspliced r:\n%s", q, r)
	}
}

// --- Theorem 3: regular case, single iteration, linear size ---

func TestTheorem3RegularSingleIteration(t *testing.T) {
	st := symtab.NewTable()
	store, src := workload.Chain(st, 100)
	res := parser.MustParse(`
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
`, st)
	sys, err := equations.Transform(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.IsRegularFor("tc") {
		t.Fatal("tc should be regular")
	}
	eng := New(sys, StoreSource{Store: store}, Options{})
	r, err := eng.Query("tc", src)
	if err != nil {
		t.Fatal(err)
	}
	if r.Iterations != 1 {
		t.Fatalf("regular case used %d iterations", r.Iterations)
	}
	if len(r.Answers) != 100 {
		t.Fatalf("answers = %d", len(r.Answers))
	}
	// tc = edge*.edge: the two occurrences of edge are reached by the same
	// transitions, so they share one state, and that state holds exactly
	// the answers, so it is Final: the query node probes edge at the
	// source, and each of the 100 answers is one node that probes edge
	// once more.
	if r.Nodes != 100+1 {
		t.Fatalf("nodes = %d, want one per answer and the query node", r.Nodes)
	}
	// Demand-driven: facts consulted are bounded by reachable data. Add
	// disconnected junk; counters must not grow with it.
	base := r.Retrieved
	for i := 0; i < 500; i++ {
		store.Insert("edge", st.Intern(fmt.Sprintf("junk%d", i)), st.Intern(fmt.Sprintf("junk%d", i+1)))
	}
	if r, err = eng.Query("tc", src); err != nil {
		t.Fatal(err)
	}
	if r.Retrieved != base {
		t.Fatalf("facts consulted grew with irrelevant data: %d -> %d", base, r.Retrieved)
	}
}

// --- Theorem 4(2): h bounded by the longest e1|a path ---

func TestTheorem4IterationBound(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		st := symtab.NewTable()
		w := workload.RandomTree(st, 60, 0.3, seed)
		eng := sgEngine(t, w.Store, Options{})
		res, err := eng.Query("sg", w.Query)
		if err != nil {
			t.Fatal(err)
		}
		// Longest up-path from the query constant.
		h := longestUpPath(w.Store, w.Query)
		if res.Iterations > h+1 {
			t.Fatalf("seed %d: iterations %d exceed longest-path bound %d+1", seed, res.Iterations, h)
		}
	}
}

func longestUpPath(store *edb.Store, from symtab.Sym) int {
	up := store.Relation("up")
	var dfs func(u symtab.Sym) int
	memo := map[symtab.Sym]int{}
	var onPath map[symtab.Sym]bool
	dfs = func(u symtab.Sym) int {
		if d, ok := memo[u]; ok {
			return d
		}
		if onPath[u] {
			return 0
		}
		onPath[u] = true
		best := 0
		for _, v := range up.Successors(u) {
			if d := dfs(v) + 1; d > best {
				best = d
			}
		}
		delete(onPath, u)
		memo[u] = best
		return best
	}
	onPath = map[symtab.Sym]bool{}
	return dfs(from)
}

// --- Lemma 2 / correctness: engine answers equal the relational oracle ---

func TestEngineMatchesOracleOnRandomTrees(t *testing.T) {
	f := func(seed int64) bool {
		st := symtab.NewTable()
		w := workload.RandomTree(st, 25, 0.4, seed)
		eng := sgEngine(t, w.Store, Options{})

		up := relFromStore(w.Store, "up")
		flat := relFromStore(w.Store, "flat")
		down := relFromStore(w.Store, "down")
		oracle, ok := rel.SolveLinear(flat, up, down, 200)
		if !ok {
			return false
		}
		for _, a := range up.Domain() {
			res, err := eng.Query("sg", a)
			if err != nil {
				return false
			}
			want := oracle.Successors(a)
			if len(want) != len(res.Answers) {
				t.Logf("seed %d: a=%s got %v want %v", seed, st.Name(a), names(st, res.Answers), names(st, want))
				return false
			}
			for i := range want {
				if want[i] != res.Answers[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func relFromStore(store *edb.Store, pred string) *rel.Rel {
	out := rel.New()
	r := store.Relation(pred)
	if r == nil {
		return out
	}
	for i := 0; i < r.Len(); i++ {
		tu := r.Tuple(i)
		out.Add(tu[0], tu[1])
	}
	return out
}

// --- Query modes ---

func TestQueryInverseEqualsForwardTransposed(t *testing.T) {
	f := func(seed int64) bool {
		st := symtab.NewTable()
		w := workload.RandomTree(st, 20, 0.4, seed)
		eng := sgEngine(t, w.Store, Options{})
		rev := New(eng.System().Reverse(), StoreSource{Store: w.Store}, Options{})
		domain := activeDomain(w.Store)
		// For every pair (a,b): b ∈ Query(a) iff a ∈ rev.Query(b).
		forward := map[[2]symtab.Sym]bool{}
		for _, a := range domain {
			res, err := eng.Query("sg", a)
			if err != nil {
				return false
			}
			for _, b := range res.Answers {
				forward[[2]symtab.Sym{a, b}] = true
			}
		}
		for _, b := range domain {
			res, err := rev.Query("sg", b)
			if err != nil {
				return false
			}
			got := map[symtab.Sym]bool{}
			for _, a := range res.Answers {
				got[a] = true
			}
			for _, a := range domain {
				if got[a] != forward[[2]symtab.Sym{a, b}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The first query compiles the system, once, however many goroutines
// race to ask it, through whichever entry point: M(e_sg) and the cyclic
// guard's M(e1*) and M(e0·e2*) are each compiled exactly once.
func TestConcurrentFirstQueryCompilesOnce(t *testing.T) {
	st := symtab.NewTable()
	w := workload.SampleB(st, 16)
	want, err := sgEngine(t, w.Store, Options{}).Query("sg", w.Query)
	if err != nil {
		t.Fatal(err)
	}
	eng := sgEngine(t, w.Store, Options{})
	before := automaton.CompileCount()
	answers := make([][]symtab.Sym, 16)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				if res, err := eng.Query("sg", w.Query); err == nil {
					answers[i] = res.Answers
				}
			} else if batch, _, err := eng.QueryBatchCtx(nil, "sg", []symtab.Sym{w.Query}, 0); err == nil {
				answers[i] = batch[0]
			}
		}()
	}
	wg.Wait()
	if d := automaton.CompileCount() - before; d != 3 {
		t.Errorf("16 first queries compiled %d automata, want 3: M(e_sg), M(e1*) and M(e0·e2*)", d)
	}
	for i, got := range answers {
		if !slices.Equal(got, want.Answers) {
			t.Errorf("goroutine %d: answers %v, want %v", i, got, want.Answers)
		}
	}
}

func activeDomain(store *edb.Store) []symtab.Sym {
	set := map[symtab.Sym]bool{}
	for _, name := range store.Relations() {
		r := store.Relation(name)
		for i := 0; i < r.Len(); i++ {
			for _, s := range r.Tuple(i) {
				set[s] = true
			}
		}
	}
	out := make([]symtab.Sym, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	return out
}

// QueryAllCtx on a regular program uses the SCC path; its pairs must agree
// with per-source queries.
func TestQueryAllRegularMatchesPerSource(t *testing.T) {
	st := symtab.NewTable()
	store, _ := workload.RandomGraph(st, 15, 35, 42)
	res := parser.MustParse(`
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
`, st)
	sys, err := equations.Transform(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(sys, StoreSource{Store: store}, Options{})
	domain := activeDomain(store)
	pairs, _, err := eng.QueryAllCtx(nil, "tc", domain, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[[2]symtab.Sym]bool{}
	for _, p := range pairs {
		got[p] = true
	}
	for _, a := range domain {
		r, err := eng.Query("tc", a)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range r.Answers {
			if !got[[2]symtab.Sym{a, b}] {
				t.Fatalf("QueryAllCtx missing (%s, %s)", st.Name(a), st.Name(b))
			}
			delete(got, [2]symtab.Sym{a, b})
		}
	}
	if len(got) != 0 {
		t.Fatalf("QueryAllCtx has %d extra pairs", len(got))
	}
}

// QueryAllCtx on the (nonregular) sg program falls back to per-source
// evaluation and must agree with single queries too.
func TestQueryAllNonRegular(t *testing.T) {
	st := symtab.NewTable()
	w := workload.SampleC(st, 8)
	eng := sgEngine(t, w.Store, Options{})
	domain := activeDomain(w.Store)
	pairs, _, err := eng.QueryAllCtx(nil, "sg", domain, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		res, err := eng.Query("sg", p[0])
		if err != nil || !slices.Contains(res.Answers, p[1]) {
			t.Fatalf("QueryAllCtx pair (%s,%s) not confirmed", st.Name(p[0]), st.Name(p[1]))
		}
	}
}

func TestMaxNodesAborts(t *testing.T) {
	st := symtab.NewTable()
	w := workload.SampleB(st, 60)
	eng := sgEngine(t, w.Store, Options{MaxNodes: 50})
	if _, err := eng.Query("sg", w.Query); err == nil {
		t.Fatal("MaxNodes overflow not reported")
	}
}

func TestUnknownPredicate(t *testing.T) {
	st := symtab.NewTable()
	w := workload.SampleA(st, 3)
	eng := sgEngine(t, w.Store, Options{})
	if _, err := eng.Query("nosuch", w.Query); err == nil {
		t.Fatal("unknown predicate accepted")
	}
	if _, err := New(eng.System().Reverse(), StoreSource{Store: w.Store}, Options{}).Query("nosuch", w.Query); err == nil {
		t.Fatal("unknown predicate accepted (inverse)")
	}
	if _, _, err := eng.QueryAllCtx(nil, "nosuch", nil, 0); err == nil {
		t.Fatal("unknown predicate accepted (all)")
	}
}

// Expansions only happen along reachable continuation points: querying a
// constant with no up-edges must not expand at all.
func TestDemandDrivenExpansion(t *testing.T) {
	st := symtab.NewTable()
	w := workload.SampleA(st, 10)
	eng := sgEngine(t, w.Store, Options{})
	res, err := eng.Query("sg", st.Intern("w1")) // a leaf: no up, no flat
	if err != nil {
		t.Fatal(err)
	}
	if res.Expansions != 0 {
		t.Fatalf("expansions = %d for a dead-end constant", res.Expansions)
	}
	if len(res.Answers) != 0 {
		t.Fatalf("answers = %v", names(st, res.Answers))
	}
}

func TestRandomGraphReachabilityMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		st := symtab.NewTable()
		store, src := workload.RandomGraph(st, 12, 30, seed)
		res := parser.MustParse(`
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
`, st)
		sys, err := equations.Transform(res.Program)
		if err != nil {
			return false
		}
		eng := New(sys, StoreSource{Store: store}, Options{})
		r, err := eng.Query("tc", src)
		if err != nil {
			return false
		}
		// Oracle: BFS one step then closure.
		edge := relFromStore(store, "edge")
		want := rel.Image(edge, rel.ReachableFrom(edge, []symtab.Sym{src}))
		// want = successors of reachable set = exactly tc(src, ·)
		if len(want) != len(r.Answers) {
			return false
		}
		for i := range want {
			if want[i] != r.Answers[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Determinism: repeated runs produce identical results and stats.
func TestDeterminism(t *testing.T) {
	st := symtab.NewTable()
	w := workload.SampleB(st, 20)
	eng := sgEngine(t, w.Store, Options{})
	r1, err := eng.Query("sg", w.Query)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Query("sg", w.Query)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Nodes != r2.Nodes || r1.Iterations != r2.Iterations || len(r1.Answers) != len(r2.Answers) {
		t.Fatalf("nondeterministic: %+v vs %+v", r1, r2)
	}
	_ = rand.Int
}
