package chaineval_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"chainlog/internal/automaton"
	"chainlog/internal/binchain"
	"chainlog/internal/chaineval"
	"chainlog/internal/edb"
	"chainlog/internal/equations"
	"chainlog/internal/expr"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

// probeQuery is one p(a, Y) — or, inverse, p(X, a) — of a probeCase.
type probeQuery struct {
	pred    string
	a       symtab.Sym
	inverse bool
}

// probeCase is one program over one database with the queries to run on
// it. Everything but the source is fixed, so the same case can be run on
// its real source (the runs' tallies give Lookups and FactsConsulted as
// the serving path reports them) and on a probe-counting wrapper of it.
type probeCase struct {
	name    string
	sys     *equations.System
	src     chaineval.Source
	queries []probeQuery
	// regular marks equations that never expand, for which the node
	// bound of invariant (b) holds.
	regular bool
	// nodes, when set, is the exact interpretation-graph size of the
	// case's single query.
	nodes int
}

// workRow is the work of a case summed over its queries.
type workRow struct {
	lookups, facts            int64
	iterations, expansions, n int
}

func transformed(t *testing.T, src string, st *symtab.Table) *equations.System {
	t.Helper()
	sys, err := equations.Transform(parser.MustParse(src, st).Program)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// section4 compiles an n-ary query through the Section 4 transformation.
func section4(t *testing.T, name, prog, query string, st *symtab.Table, store *edb.Store) probeCase {
	t.Helper()
	tr, err := binchain.Transform(parser.MustParse(prog, st).Program, parser.MustParseQuery(query, st), store, false)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := equations.Transform(tr.Program)
	if err != nil {
		t.Fatal(err)
	}
	return probeCase{name: name, sys: sys, src: tr.Source,
		queries: []probeQuery{{pred: tr.QueryPred, a: tr.BoundArg}}}
}

// The binary-chain differential templates of the root package's oracle
// (differential_test.go), with the derived predicates each is queried on.
// Its other chain-evaluable templates are not binary-chain programs as
// written and come in through Section 4 below.
var chainTemplates = []struct {
	name, src string
	bases     []string
	preds     []string
}{
	{"tc", "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- e(X, Y), tc(Y, Z).\n", []string{"e"}, []string{"tc"}},
	{"sg", workload.SGProgram, []string{"flat", "up", "down"}, []string{"sg"}},
	{"nonregular", "p(X, Y) :- a(X, Y).\np(X, Z) :- a(X, Y), p(Y, W), b(W, Z).\n", []string{"a", "b"}, []string{"p"}},
	{"mutual", "p(X, Z) :- a(X, Y), q(Y, Z).\nq(X, Y) :- b(X, Y).\nq(X, Z) :- b(X, Y), p(Y, Z).\n", []string{"a", "b"}, []string{"p", "q"}},
}

// templateCase loads a template over the oracle's eight constants with a
// fixed random fact set — dense enough to be cyclic — and queries every
// derived predicate at every constant, both ways.
func templateCase(t *testing.T, i int) probeCase {
	tm := chainTemplates[i]
	st := symtab.NewTable()
	store := edb.NewStore(st)
	consts := make([]symtab.Sym, 8)
	for k := range consts {
		consts[k] = st.Intern(fmt.Sprintf("c%d", k))
	}
	rng := rand.New(rand.NewSource(int64(i) + 1))
	for _, b := range tm.bases {
		for k := 0; k < 11; k++ {
			store.Insert(b, consts[rng.Intn(8)], consts[rng.Intn(8)])
		}
	}
	c := probeCase{name: "template/" + tm.name, sys: transformed(t, tm.src, st), src: chaineval.StoreSource{Store: store}}
	for _, p := range tm.preds {
		for _, a := range consts {
			c.queries = append(c.queries, probeQuery{p, a, false}, probeQuery{p, a, true})
		}
	}
	return c
}

func probeCases(t *testing.T) []probeCase {
	var cases []probeCase
	for _, s := range []struct {
		name  string
		gen   func(*symtab.Table, int) *workload.SG
		nodes int
	}{{"fig7a", workload.SampleA, 130}, {"fig7b", workload.SampleB, 1120}, {"fig7c", workload.SampleC, 128}} {
		st := symtab.NewTable()
		w := s.gen(st, 64)
		cases = append(cases, probeCase{name: s.name + "/n=64", sys: transformed(t, workload.SGProgram, st),
			src: chaineval.StoreSource{Store: w.Store}, queries: []probeQuery{{pred: "sg", a: w.Query}}, nodes: s.nodes})
	}
	{
		st := symtab.NewTable()
		store, src := workload.Grid(st, 20, 20)
		cases = append(cases, probeCase{name: "grid/20x20", regular: true,
			sys: transformed(t, "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n", st),
			src: chaineval.StoreSource{Store: store}, queries: []probeQuery{{pred: "tc", a: src}}})
	}
	{
		// A star-heavy regular equation written directly: stars nested,
		// at the front, over unions, and a nullable tail — on a random
		// graph with cycles.
		st := symtab.NewTable()
		store, _ := workload.RandomGraph(st, 30, 70, 5)
		rng := rand.New(rand.NewSource(9))
		dom := store.Relation("edge").Domain(0)
		for _, p := range []string{"f", "g"} {
			for k := 0; k < 40; k++ {
				store.Insert(p, dom[rng.Intn(len(dom))], dom[rng.Intn(len(dom))])
			}
		}
		sys := &equations.System{Order: []string{"p"}, Derived: map[string]bool{"p": true},
			Eq: map[string]expr.Expr{"p": expr.MustParse("(edge.f* U g)*.f.(g U (edge.g)*)*.(f~ U id)")}}
		c := probeCase{name: "stars", regular: true, sys: sys, src: chaineval.StoreSource{Store: store}}
		for _, a := range dom[:10] {
			c.queries = append(c.queries, probeQuery{"p", a, false}, probeQuery{"p", a, true})
		}
		cases = append(cases, c)
	}
	{
		st := symtab.NewTable()
		f := workload.FlightDB(st, 40, 6, 1)
		cases = append(cases, section4(t, "flights", workload.FlightProgram,
			fmt.Sprintf("cnx(%s, %s, D, AT)", st.Name(f.Source), st.Name(f.DepTime)), st, f.Store))
	}
	for i := range chainTemplates {
		cases = append(cases, templateCase(t, i))
	}
	// The oracle's other chain-evaluable templates, through Section 4
	// (its n-ary sg3 is not a chain program under any binding).
	for _, tm := range []struct{ name, src string }{
		{"builtin", "inc(X, Y) :- e(X, Y), X < Y.\ninc(X, Z) :- e(X, Y), X < Y, inc(Y, Z).\n"},
		{"shapes", "r(X, Y) :- e(X, Y).\nr(X, Z) :- r(Y, Z), e(X, Y).\n"},
	} {
		pred := tm.src[:strings.Index(tm.src, "(")]
		for _, q := range []string{"(c0, Y)", "(X, c3)"} {
			st := symtab.NewTable()
			store := edb.NewStore(st)
			rng := rand.New(rand.NewSource(3))
			for k := 0; k < 14; k++ {
				store.Insert("e", st.Intern(fmt.Sprintf("c%d", rng.Intn(8))), st.Intern(fmt.Sprintf("c%d", rng.Intn(8))))
			}
			cases = append(cases, section4(t, "template/"+tm.name+q, tm.src, pred+q, st, store))
		}
	}
	return cases
}

// engine returns the engine a query runs on: over the case's system, or
// over its reverse for p(X, a) — the paper's r(a, Y), r the inverse of p.
func (q probeQuery) engine(c probeCase, src chaineval.Source, opts chaineval.Options) *chaineval.Engine {
	if q.inverse {
		return chaineval.New(c.sys.Reverse(), src, opts)
	}
	return chaineval.New(c.sys, src, opts)
}

// parentWork is the work each case did at the commit before the
// automata lost their empty-string hops (a textbook construction with an
// id transition at every joint, and two more around every expansion),
// measured by this same code: the store's lookup and
// retrieval counters, and iterations, expansions and answers summed over
// the case's queries. It is an upper bound: no change to the automata
// may make a case do more work than this.
var parentWork = map[string]workRow{
	"fig7a/n=64":              {lookups: 326, facts: 384, iterations: 2, expansions: 1, n: 64},
	"fig7b/n=64":              {lookups: 1344, facts: 1309, iterations: 64, expansions: 63, n: 32},
	"fig7c/n=64":              {lookups: 383, facts: 380, iterations: 64, expansions: 63, n: 1},
	"grid/20x20":              {lookups: 800, facts: 1520, iterations: 1, expansions: 0, n: 399},
	"stars":                   {lookups: 3650, facts: 6183, iterations: 20, expansions: 0, n: 520},
	"flights":                 {lookups: 4345, facts: 13053, iterations: 1, expansions: 0, n: 57},
	"template/tc":             {lookups: 159, facts: 204, iterations: 16, expansions: 0, n: 98},
	"template/sg":             {lookups: 7217, facts: 9734, iterations: 354, expansions: 338, n: 76},
	"template/nonregular":     {lookups: 1841, facts: 1797, iterations: 220, expansions: 204, n: 40},
	"template/mutual":         {lookups: 284, facts: 368, iterations: 32, expansions: 0, n: 102},
	"template/builtin(c0, Y)": {lookups: 14, facts: 22, iterations: 1, expansions: 0, n: 6},
	"template/builtin(X, c3)": {lookups: 3, facts: 4, iterations: 1, expansions: 0, n: 2},
	"template/shapes(c0, Y)":  {lookups: 14, facts: 22, iterations: 1, expansions: 0, n: 6},
	"template/shapes(X, c3)":  {lookups: 8, facts: 12, iterations: 1, expansions: 0, n: 7},
}

// mergedWork is the work each case does now that occurrences reached by
// the same transitions share one state: the cases whose equation spells
// such a pair (tc = e*.e's two e, and what nests them) probe each of
// their terms once where they probed it twice. The cyclic guard's probes
// are charged only on runs whose continuation points repeat. A regular
// tc = e*.e is q0 -e-> q1, q1 -e-> q1, Final reading on: Start probes
// the query term and Final probes it again when it answers, so
// template/tc's six forward queries whose term lies on a cycle through
// itself probe it twice (108 lookups and 139 facts before Final merged).
var mergedWork = map[string]workRow{
	"fig7a/n=64":              {lookups: 131, facts: 192, iterations: 2, expansions: 1, n: 64},
	"fig7b/n=64":              {lookups: 1152, facts: 1119, iterations: 64, expansions: 63, n: 32},
	"fig7c/n=64":              {lookups: 191, facts: 190, iterations: 64, expansions: 63, n: 1},
	"grid/20x20":              {lookups: 400, facts: 760, iterations: 1, expansions: 0, n: 399},
	"stars":                   {lookups: 3432, facts: 5871, iterations: 20, expansions: 0, n: 520},
	"flights":                 {lookups: 4345, facts: 13053, iterations: 1, expansions: 0, n: 57},
	"template/tc":             {lookups: 114, facts: 148, iterations: 16, expansions: 0, n: 98},
	"template/sg":             {lookups: 7091, facts: 9583, iterations: 354, expansions: 338, n: 76},
	"template/nonregular":     {lookups: 1710, facts: 1678, iterations: 220, expansions: 204, n: 40},
	"template/mutual":         {lookups: 219, facts: 269, iterations: 32, expansions: 0, n: 102},
	"template/builtin(c0, Y)": {lookups: 14, facts: 22, iterations: 1, expansions: 0, n: 6},
	"template/builtin(X, c3)": {lookups: 3, facts: 4, iterations: 1, expansions: 0, n: 2},
	"template/shapes(c0, Y)":  {lookups: 14, facts: 22, iterations: 1, expansions: 0, n: 6},
	"template/shapes(X, c3)":  {lookups: 8, facts: 12, iterations: 1, expansions: 0, n: 7},
}

// TestOneProbePerNode pins what the id-free automata promise, exactly.
//
// No more work: on every case, Lookups, FactsConsulted, Iterations and
// Expansions are at most the parent commit's, the answer count is the
// same, and all five equal the recorded mergedWork.
//
// One probe per node: Lookups is the number of base transitions leaving
// the states of the visited (state, term) nodes — every node costs the
// probes of its state and nothing is probed twice. (A state other than
// Start and the expanded ones leaves by exactly one transition, so this
// is one probe per node.) The nodes come from the tracer and the
// transitions from EM(p,i) as the run left it; the cyclic guard, which
// probes on its own account, is off, and the iteration count it stopped
// the run at is imposed instead.
//
// (b) A regular equation has no node that does not probe, apart from the
// query node and, when Final is a sink, the answers: Nodes ≤ Lookups + 1
// where Final reads on, and Nodes ≤ Lookups + |answers| + 1 otherwise.
//
// (c) Exact interpretation-graph sizes for the Fig. 7 samples, so one
// more hop per level fails by number, not by growth class.
func TestOneProbePerNode(t *testing.T) {
	for _, c := range probeCases(t) {
		t.Run(c.name, func(t *testing.T) {
			// No more work than the parent, on the real source.
			var got workRow
			iters := make([]int, len(c.queries))
			for i, q := range c.queries {
				res, err := q.engine(c, c.src, chaineval.Options{}).Query(q.pred, q.a)
				if err != nil {
					t.Fatal(err)
				}
				iters[i] = res.Iterations
				got.iterations += res.Iterations
				got.expansions += res.Expansions
				got.n += len(res.Answers)
				got.lookups += res.Lookups
				got.facts += res.Retrieved
				if c.nodes != 0 && res.Nodes != c.nodes {
					t.Errorf("nodes = %d, want exactly %d", res.Nodes, c.nodes)
				}
			}
			t.Logf("%q: {lookups: %d, facts: %d, iterations: %d, expansions: %d, n: %d},",
				c.name, got.lookups, got.facts, got.iterations, got.expansions, got.n)
			if p := parentWork[c.name]; got.lookups > p.lookups || got.facts > p.facts ||
				got.iterations > p.iterations || got.expansions > p.expansions || got.n != p.n {
				t.Errorf("work = %+v, parent commit did %+v", got, p)
			}
			if want := mergedWork[c.name]; got != want {
				t.Errorf("work = %+v, want %+v", got, want)
			}

			// One probe per node, on a source that counts its probes.
			var probes int
			var work edb.Counters
			counted := chaineval.FuncSource{
				Succ: func(p string, u symtab.Sym) []symtab.Sym { probes++; return c.src.Successors(p, u, &work) },
				Pred: func(p string, u symtab.Sym) []symtab.Sym { probes++; return c.src.Predecessors(p, u, &work) },
			}
			for i, q := range c.queries {
				var visited stateRecorder
				eng := q.engine(c, counted, chaineval.Options{DisableCyclicGuard: true, MaxIterations: iters[i], Tracer: &visited})
				probes = 0
				res, em, err := eng.RunEM(q.pred, q.a)
				if err != nil {
					t.Fatal(err)
				}
				if res.Nodes != len(visited) {
					t.Fatalf("%v: %d nodes, %d traced", q, res.Nodes, len(visited))
				}
				want := 0
				for _, state := range visited {
					want += baseTransitions(em, state)
				}
				if probes != want {
					t.Errorf("%v: %d probes for %d nodes whose states leave by %d base transitions", q, probes, res.Nodes, want)
				}
				sink := 0
				if baseTransitions(em, em.Final) == 0 {
					sink = len(res.Answers)
				}
				if c.regular && res.Nodes > probes+sink+1 {
					t.Errorf("%v: %d nodes > %d probes + %d answers at a sink Final + 1", q, res.Nodes, probes, sink)
				}
			}
		})
	}
}

// stateRecorder is a Tracer keeping the state of every inserted node.
type stateRecorder []int

func (r *stateRecorder) Iteration(int)            {}
func (r *stateRecorder) Node(q int, _ symtab.Sym) { *r = append(*r, q) }
func (r *stateRecorder) Expand(string, int, int)  {}
func (r *stateRecorder) Answer(symtab.Sym)        {}

// baseTransitions counts the live base-predicate transitions leaving q:
// the probes a node at q costs.
func baseTransitions(m *automaton.NFA, q int) int {
	n := 0
	for _, e := range m.Edges(q) {
		if !e.Removed() && !e.Fan && (e.Kind == automaton.KindBase || e.Kind == automaton.KindBaseInv) {
			n++
		}
	}
	return n
}
