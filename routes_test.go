package chainlog

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"chainlog/internal/equations"
	"chainlog/internal/ivm"
	"chainlog/internal/naiveeval"
	"chainlog/internal/parser"
)

// sgBesideTcnSrc is the general-join shape: the center-linear sg next to
// a nonlinear tcn it does not depend on.
const sgBesideTcnSrc = sgSrc + `
tcn(X, Y) :- e(X, Y).
tcn(X, Z) :- tcn(X, Y), tcn(Y, Z).
e(n1, n2). e(n2, n3). e(n3, n4).
`

// sgBesideTwoSidedSrc puts sg next to a nonlinear p with no chain route:
// p is recursive on both sides of a·p·b and closes over p·p, so it is not
// regular and step 4's closure identities leave it as it is.
const sgBesideTwoSidedSrc = sgSrc + `
p(X, Y) :- e(X, Y).
p(X, W) :- a(X, Y), p(Y, Z), b(Z, W).
p(X, Z) :- p(X, Y), p(Y, Z).
e(n1, n2). e(n2, n3). e(n3, n4).
a(n0, n1). b(n4, n5).
`

// naiveOracle answers a concrete query with the independent reference
// evaluator, rendered and ordered like Answer.Rows.
func naiveOracle(t *testing.T, db *DB, src, query string) [][]string {
	t.Helper()
	res, err := parser.Parse(src, db.SymTab())
	if err != nil {
		t.Fatal(err)
	}
	facts := naiveeval.NewFacts()
	for _, f := range res.Facts {
		facts.Assert(f.Pred, f.Args)
	}
	q, err := parser.ParseQuery(query, db.SymTab())
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, r := range naiveeval.Answer(res.Program, facts, db.SymTab(), q) {
		row := make([]string, len(r))
		for i, v := range r {
			row[i] = db.Name(v)
		}
		rows = append(rows, row)
	}
	sortRows(rows)
	return rows
}

// explainCase is one (database, concrete query) pair the agreement test
// drives.
type explainCase struct {
	name  string
	db    *DB
	query string
}

func explainCases(t *testing.T) []explainCase {
	var cases []explainCase
	for _, c := range readCorpus(t) {
		cases = append(cases, explainCase{"planchoice/" + c.Name, loadCorpusDB(t, c), fillHoles(c.Query, c.Args)})
	}
	for _, tmpl := range diffTemplates {
		db := mustDB(t, tmpl.src)
		for _, b := range tmpl.bases {
			for i := 0; i < 3; i++ {
				args := make([]string, b.arity)
				for k := range args {
					args[k] = diffConsts[(i+k)%len(diffConsts)]
				}
				db.Assert(b.pred, args...)
			}
		}
		for _, q := range tmpl.queries {
			consts := make([]string, countHoles(q))
			for i := range consts {
				consts[i] = diffConsts[i]
			}
			cases = append(cases, explainCase{"diff/" + tmpl.name + "/" + q, db, fillHoles(q, consts)})
		}
	}
	return cases
}

// Explain describes the plan Prepare builds, never a second opinion
// about it: it succeeds wherever Prepare does, names the same strategy,
// and shows the automaton exactly when the plan is a chainPlan.
func TestExplainAgreesWithPrepare(t *testing.T) {
	for _, c := range explainCases(t) {
		t.Run(c.name, func(t *testing.T) {
			tmpl, _, err := parser.ParseQueryNames(c.query)
			if err != nil {
				t.Fatal(err)
			}
			p, err := c.db.prepareQuery(canonicalVars(tmpl), Options{})
			if err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			out, err := c.db.Explain(c.query)
			if err != nil {
				t.Fatalf("Explain fails where Prepare succeeds: %v", err)
			}
			want := "chosen: " + p.Plan().Strategy.String() + ","
			if !strings.Contains(out, want) {
				t.Errorf("Explain does not say %q:\n%s", want, out)
			}
			_, direct := p.plan.(*chainPlan)
			if got := strings.Contains(out, "automaton M(e_"); got != direct {
				t.Errorf("automaton shown = %v, plan is %T:\n%s", got, p.plan, out)
			}
		})
	}
}

// The two programs on which Explain used to contradict Prepare.
func TestExplainUsesTheSlice(t *testing.T) {
	db := mustDB(t, sgBesideTcnSrc)
	for _, q := range []string{"sg(john, Y)", "tcn(n1, Y)"} {
		out, err := db.Explain(q)
		if err != nil {
			t.Fatalf("Explain(%s): %v", q, err)
		}
		if q == "sg(john, Y)" && !strings.Contains(out, "automaton M(e_sg)") {
			t.Fatalf("Explain(%s) lost the direct automaton:\n%s", q, out)
		}
	}

	db = mustDB(t, tcSrc+flightSrc)
	out, err := db.Explain("tc(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "bin_tc_bf") || !strings.Contains(out, "automaton M(e_tc)") {
		t.Fatalf("tc beside cnx is a direct plan, Explain shows Section 4:\n%s", out)
	}
}

// Explain without a query renders the whole program's equations, and a
// nonlinear closure is among them once Lemma 1 solves it; a program the
// identities cannot solve still has no equation system.
func TestExplainProgramSolvesNonlinearClosure(t *testing.T) {
	out, err := mustDB(t, sgBesideTcnSrc).Explain("")
	if err != nil {
		t.Fatalf("Explain(\"\") beside tcn: %v", err)
	}
	for _, want := range []string{"sg = flat U up.sg.down\n", "tcn = e.e*\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain(\"\") does not render %q:\n%s", want, out)
		}
	}
	if _, err := mustDB(t, sgBesideTwoSidedSrc).Explain(""); err == nil || !strings.Contains(err.Error(), "not linear") {
		t.Errorf("Explain(\"\") beside a two-sided nonlinear p: %v, want the Lemma 1 error", err)
	}
}

// The nonlinear programs Lemma 1's closure identities solve run on the
// chain route and answer bf, fb and ff queries as the reference
// evaluator does on random 12-node graphs.
func TestNonlinearClosureOnChain(t *testing.T) {
	programs := map[string]string{
		"tcn":                 "p(X, Y) :- e(X, Y).\np(X, Z) :- p(X, Y), p(Y, Z).\n",
		"p.b.p":               "p(X, Y) :- e(X, Y).\np(X, W) :- p(X, Y), b(Y, Z), p(Z, W).\n",
		"left-linear+p.b.p":   "p(X, Y) :- e(X, Y).\np(X, Z) :- p(X, Y), c(Y, Z).\np(X, W) :- p(X, Y), b(Y, Z), p(Z, W).\n",
		"right-linear+p.p":    "p(X, Y) :- e(X, Y).\np(X, Z) :- d(X, Y), p(Y, Z).\np(X, Z) :- p(X, Y), p(Y, Z).\n",
		"linear r over tcn":   "p(X, Y) :- e(X, Y).\np(X, Z) :- p(X, Y), p(Y, Z).\nr(X, Y) :- c(X, Y).\nr(X, W) :- b(X, Y), r(Y, Z), p(Z, W).\n",
		"nonregular over p.p": "p(X, Y) :- e(X, Y).\np(X, Z) :- p(X, Y), p(Y, Z).\nr(X, Y) :- p(X, Y).\nr(X, W) :- b(X, Y), r(Y, Z), c(Z, W).\n",
	}
	rng := rand.New(rand.NewSource(34))
	for name, rules := range programs {
		for trial := 0; trial < 3; trial++ {
			var src strings.Builder
			src.WriteString(rules)
			for _, rel := range []string{"e", "b", "c", "d"} {
				for i := 0; i < 10; i++ {
					fmt.Fprintf(&src, "%s(n%d, n%d).\n", rel, rng.Intn(12), rng.Intn(12))
				}
			}
			db := mustDB(t, src.String())
			for _, pred := range []string{"p", "r"} {
				if !strings.Contains(rules, pred+"(X, Y) :-") {
					continue
				}
				k := rng.Intn(12)
				for _, q := range []string{fmt.Sprintf("%s(n%d, Y)", pred, k), fmt.Sprintf("%s(X, n%d)", pred, k), pred + "(X, Y)"} {
					ans, err := db.QueryOpts(q, Options{Strategy: Chain})
					if err != nil {
						t.Fatalf("%s: %s on the chain route: %v", name, q, err)
					}
					if ans.Stats.Strategy != Chain {
						t.Fatalf("%s: %s ran as %v", name, q, ans.Stats.Strategy)
					}
					if want := naiveOracle(t, db, src.String(), q); len(ans.Rows)+len(want) > 0 && !reflect.DeepEqual(ans.Rows, want) {
						t.Fatalf("%s: %s = %v, oracle %v\n%s", name, q, ans.Rows, want, src.String())
					}
				}
			}
		}
	}
}

// The magic-sets rewriting a view maintains adorns the slice the query
// depends on: an unrelated nonlinear tcn does not refuse it, so the view
// holds the cone of its constant rather than the plain slice it falls
// back to when the rewriting is refused.
func TestMagicCompilesAgainstTheSlice(t *testing.T) {
	db := mustDB(t, sgBesideTcnSrc)
	p, err := db.Prepare("sg(?, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	plain, err := ivm.NewView(db.relevantProgram("sg"), "sg", db.store, db.st)
	db.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	for _, who := range []string{"john", "bob", "gp"} {
		m, err := p.Materialize(who)
		if err != nil {
			t.Fatalf("Materialize(%s) beside tcn: %v", who, err)
		}
		defer m.Close()
		rows, _ := m.Snapshot()
		if want := naiveOracle(t, db, sgBesideTcnSrc, "sg("+who+", Y)"); !reflect.DeepEqual(rows, want) {
			t.Fatalf("view sg(%s, Y) = %v, oracle %v", who, rows, want)
		}
		if got, whole := m.Stats().Facts, plain.Stats().Facts; got >= whole {
			t.Errorf("view sg(%s, Y) holds %d facts, the plain slice %d: the rewriting was refused", who, got, whole)
		}
	}
}

// A pinned Chain that cannot compile falls back by one rule — qsqnet,
// else seminaive — and everything that reports a strategy names the
// route that runs, with the pin and the chain error in Reason.
func TestPinnedChainFallbackReportsWhatRuns(t *testing.T) {
	db := mustDB(t, flightSrc)
	p, err := db.Prepare("cnx(?, DT, D, AT)", Options{Strategy: Chain})
	if err != nil {
		t.Fatal(err)
	}
	pc := p.Plan()
	if pc.Strategy != QSQNet || !pc.Pinned {
		t.Fatalf("plan = %+v, want pinned qsqnet", pc)
	}
	for _, want := range []string{"strategy chain pinned by Options.Strategy", "not a chain program"} {
		if !strings.Contains(pc.Reason, want) {
			t.Fatalf("Reason %q does not mention %q", pc.Reason, want)
		}
	}
	ans, err := p.Run("hel")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Stats.Strategy != QSQNet {
		t.Fatalf("Stats.Strategy = %v, want qsqnet", ans.Stats.Strategy)
	}
	if want := naiveOracle(t, db, flightSrc, "cnx(hel, DT, D, AT)"); !reflect.DeepEqual(ans.Rows, want) {
		t.Fatalf("fallback answer %v, oracle %v", ans.Rows, want)
	}

	// Nonlinear and two-sided: no chain route, and the net takes it.
	db = mustDB(t, sgBesideTwoSidedSrc)
	p, err = db.Prepare("p(?, Y)", Options{Strategy: Chain})
	if err != nil {
		t.Fatalf("pinned chain on a nonlinear slice must fall back: %v", err)
	}
	if pc := p.Plan(); pc.Strategy != QSQNet || !strings.Contains(pc.Reason, "not linear") {
		t.Fatalf("plan = %+v, want qsqnet with the chain error", pc)
	}
	ans, err = p.Run("n1")
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"n2"}, {"n3"}, {"n4"}}; !reflect.DeepEqual(ans.Rows, want) || ans.Stats.Strategy != QSQNet {
		t.Fatalf("p(n1, Y) = %v as %v", ans.Rows, ans.Stats.Strategy)
	}
}

// On the corpus's two-sided nonlinear case a pinned Chain runs the QSQ
// net, not the whole-program fixpoint: the same work, counter for
// counter, as pinning the net, and the chain error in Reason.
func TestPinnedChainFallsBackToTheNet(t *testing.T) {
	c := qsqGateCase(t)
	db := loadCorpusDB(t, c)
	pinned := mustPrepare(t, db, c.Query, Chain)
	got, err := pinned.Run(c.Args...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mustPrepare(t, db, c.Query, QSQNet).Run(c.Args...)
	if err != nil {
		t.Fatal(err)
	}
	g, w := got.Stats, want.Stats
	if g.Strategy != QSQNet || g.Nodes != w.Nodes || g.FactsConsulted != w.FactsConsulted || g.Lookups != w.Lookups {
		t.Errorf("pinned chain ran as %v: nodes/facts/lookups %d/%d/%d, pinned qsqnet %d/%d/%d", g.Strategy,
			g.Nodes, g.FactsConsulted, g.Lookups, w.Nodes, w.FactsConsulted, w.Lookups)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Errorf("pinned chain answers %v, pinned qsqnet %v", got.Rows, want.Rows)
	}
	_, chainErr := pinned.routes.route(Chain, false)
	if chainErr == nil || chainErr != pinned.chainErr || !strings.Contains(pinned.Plan().Reason, chainErr.Error()) {
		t.Errorf("Reason %q does not name the chain error %v", pinned.Plan().Reason, chainErr)
	}
}

// Explain asks the route table for the adorned program, which no route of
// a two-sided p compiled; concurrent Explains of one cached plan must not
// race on that memo (run under -race).
func TestConcurrentExplainOfAFallback(t *testing.T) {
	db := mustDB(t, sgBesideTwoSidedSrc)
	opts := Options{Strategy: Chain}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := db.ExplainOpts("p(n1, Y)", opts)
			if err != nil || !strings.Contains(out, "QSQ net for p^bf") || !strings.Contains(out, "NOT a chain program") {
				t.Errorf("Explain of the pinned chain's fallback (err %v):\n%s", err, out)
			}
		}()
	}
	wg.Wait()
}

// One Prepare compiles each route once: the Lemma 1 transformation runs
// exactly once per template, and Explain of a cached shape runs nothing.
func TestPrepareTransformsOnce(t *testing.T) {
	db := mustDB(t, tcSrc+flightSrc)
	for _, q := range []string{"tc(?, Y)", "cnx(?, ?, D, AT)"} {
		before := equations.TransformCount()
		if _, err := db.Prepare(q, Options{}); err != nil {
			t.Fatal(err)
		}
		if d := equations.TransformCount() - before; d != 1 {
			t.Errorf("Prepare(%s) ran the equation transformation %d times, want 1", q, d)
		}
	}
	if _, err := db.Query("tc(a, Y)"); err != nil {
		t.Fatal(err)
	}
	before := equations.TransformCount()
	if _, err := db.Explain("tc(b, Y)"); err != nil {
		t.Fatal(err)
	}
	if d := equations.TransformCount() - before; d != 0 {
		t.Errorf("Explain of a cached shape ran the equation transformation %d times", d)
	}
}

// What compiled is what is available: every pinned strategy serves every
// template — a Chain whose route did not compile falls back and names
// the route's error — and a pin runs as itself exactly when its route
// compiled. A route asked twice is the same plan.
func TestRouteTableMatchesRejects(t *testing.T) {
	for _, tmpl := range diffTemplates {
		db := mustDB(t, tmpl.src)
		for _, text := range tmpl.queries {
			q, err := parser.ParseQueryTemplate(text, db.SymTab())
			if err != nil {
				t.Fatal(err)
			}
			table := db.newRoutes(q, Options{})
			for _, s := range Strategies()[1:] {
				pl, routeErr := table.route(s, false)
				if again, _ := table.route(s, false); again != pl {
					t.Errorf("%s %s: route(%v) compiled twice", tmpl.name, text, s)
				}
				p, err := db.Prepare(text, Options{Strategy: s})
				if err != nil {
					t.Errorf("%s %s: Prepare pinned to %v: %v", tmpl.name, text, s, err)
					continue
				}
				if ran := p.Plan().Strategy; (ran == s) != (routeErr == nil) {
					t.Errorf("%s %s: %v route error %v, plan runs %v", tmpl.name, text, s, routeErr, ran)
				}
				if s == Chain && (p.chainErr != nil) != (routeErr != nil) {
					t.Errorf("%s %s: pinned chain names %v, route error %v", tmpl.name, text, p.chainErr, routeErr)
				}
			}
		}
	}
	if _, err := mustDB(t, tcSrc).Prepare("tc(?, Y)", Options{Strategy: Strategy(99)}); err == nil {
		t.Fatal("out-of-range strategy accepted")
	}
}
