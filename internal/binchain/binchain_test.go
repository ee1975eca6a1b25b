package binchain

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"chainlog/internal/adorn"
	"chainlog/internal/ast"
	"chainlog/internal/bottomup"
	"chainlog/internal/chaineval"
	"chainlog/internal/edb"
	"chainlog/internal/equations"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
)

type fixture struct {
	st    *symtab.Table
	store *edb.Store
	prog  *ast.Program
}

func load(t *testing.T, src string) *fixture {
	t.Helper()
	st := symtab.NewTable()
	res, err := parser.Parse(src, st)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	store := edb.NewStore(st)
	for _, f := range res.Facts {
		store.Insert(f.Pred, f.Args...)
	}
	return &fixture{st: st, store: store, prog: res.Program}
}

// runTransformed runs the full Section 4 pipeline: the run of the
// transformation that numbered the traversal's terms, and its result.
func runTransformed(t *testing.T, fx *fixture, query string, unsafe bool) (*Run, *chaineval.Result) {
	t.Helper()
	q, err := parser.ParseQuery(query, fx.st)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	tr, err := Transform(fx.prog, q, fx.store, unsafe)
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	sys, err := equations.Transform(tr.Program)
	if err != nil {
		t.Fatalf("equations: %v\n%s", err, tr.Program.Render(fx.st))
	}
	run := tr.NewRun()
	res, err := chaineval.New(sys, &run, chaineval.Options{}).Query(tr.QueryPred, run.Bind(nil))
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return &run, res
}

// evalTransformed runs the full Section 4 pipeline and returns sorted
// decoded answer rows as strings.
func evalTransformed(t *testing.T, fx *fixture, query string, unsafe bool) [][]string {
	t.Helper()
	run, res := runTransformed(t, fx, query, unsafe)
	rows := run.DecodeAnswers(res.Answers)
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		row := make([]string, len(r))
		for i, s := range r {
			row[i] = fx.st.Name(s)
		}
		out = append(out, row)
	}
	sortRows(out)
	return out
}

// seminaiveRows answers the query with the general bottom-up baseline.
func seminaiveRows(t *testing.T, fx *fixture, query string) [][]string {
	t.Helper()
	q, err := parser.ParseQuery(query, fx.st)
	if err != nil {
		t.Fatal(err)
	}
	idb, _, err := bottomup.Seminaive(fx.prog, fx.store)
	if err != nil {
		t.Fatal(err)
	}
	rows := bottomup.Answer(idb, q)
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		row := make([]string, len(r))
		for i, s := range r {
			row[i] = fx.st.Name(s)
		}
		out = append(out, row)
	}
	sortRows(out)
	return out
}

func sortRows(rows [][]string) {
	sort.Slice(rows, func(i, j int) bool {
		return fmt.Sprint(rows[i]) < fmt.Sprint(rows[j])
	})
}

const flightSrc = `
cnx(S, DT, D, AT) :- flight(S, DT, D, AT).
cnx(S, DT, D, AT) :- flight(S, DT, D1, AT1), AT1 < DT1, is_deptime(DT1), cnx(D1, DT1, D, AT).

flight(hel, 900, sto, 1000).
flight(sto, 1100, par, 1300).
flight(par, 1400, nyc, 2000).
flight(sto, 930, osl, 1030).
flight(osl, 1200, cdg, 1500).
is_deptime(900). is_deptime(1100). is_deptime(1400).
is_deptime(930). is_deptime(1200).
`

// The flight program becomes the regular binary-chain program of the
// paper: bin-cnx^bbff = base-r1 ∪ in-r2 · bin-cnx^bbff, with out-r2 the
// identity (and therefore omitted).
func TestFlightTransformStructure(t *testing.T) {
	fx := load(t, flightSrc)
	q := parser.MustParseQuery("cnx(hel, 900, D, AT)", fx.st)
	tr, err := Transform(fx.prog, q, fx.store, false)
	if err != nil {
		t.Fatal(err)
	}
	if tr.QueryPred != "bin_cnx_bbff" {
		t.Fatalf("query pred = %s", tr.QueryPred)
	}
	if len(tr.Program.Rules) != 2 {
		t.Fatalf("bin program:\n%s", tr.Program.Render(fx.st))
	}
	// Recursive rule must have exactly in-r and bin (out omitted).
	rec := tr.Program.Rules[1]
	if len(rec.Body) != 2 {
		t.Fatalf("recursive rule body = %d literals: %s", len(rec.Body), rec.Render(fx.st))
	}
	sys, err := equations.Transform(tr.Program)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.IsRegularFor(tr.QueryPred) {
		t.Fatalf("flight bin program should be regular:\n%s", sys.Render())
	}
	// Bound tuple is t(hel, 900).
	run := tr.NewRun()
	if e := run.DecodeAnswer(run.Bind(nil)); !reflect.DeepEqual(e, []symtab.Sym{fx.st.Intern("hel"), fx.st.Intern("900")}) {
		t.Fatalf("bound arg = %v", e)
	}
	if !reflect.DeepEqual(tr.FreeVars, []string{"D", "AT"}) {
		t.Fatalf("free vars = %v", tr.FreeVars)
	}
}

func TestFlightAnswersMatchSeminaive(t *testing.T) {
	fx := load(t, flightSrc)
	got := evalTransformed(t, fx, "cnx(hel, 900, D, AT)", false)
	want := seminaiveRows(t, fx, "cnx(hel, 900, D, AT)")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	// Must include the transitive connection hel→sto→par→nyc.
	found := false
	for _, r := range got {
		if r[0] == "nyc" {
			found = true
		}
	}
	if !found {
		t.Fatal("transitive connection to nyc missing")
	}
}

// Binding propagation: only facts reachable from the bound source may be
// consulted. Loading many flights from unrelated airports must not
// increase the facts consulted for the hel query (ablation A4's claim).
func TestBindingRestrictsFactsConsulted(t *testing.T) {
	fx := load(t, flightSrc)
	run := func() int64 {
		_, res := runTransformed(t, fx, "cnx(hel, 900, D, AT)", false)
		return res.Retrieved
	}
	before := run()
	// Unconnected clique of flights.
	for i := 0; i < 50; i++ {
		fx.store.Insert("flight",
			fx.st.Intern(fmt.Sprintf("zz%d", i)), fx.st.Intern("500"),
			fx.st.Intern(fmt.Sprintf("zz%d", i+1)), fx.st.Intern("530"))
	}
	after := run()
	if after != before {
		t.Fatalf("facts consulted grew with irrelevant flights: %d -> %d", before, after)
	}
}

// Naughton's example: the bf/fb mutual recursion transforms into a
// nonregular binary-chain program; answers must match seminaive.
func TestNaughtonExampleAnswers(t *testing.T) {
	fx := load(t, `
p(X, Y) :- b0(X, Y).
p(X, Y) :- b1(X, Z), p(Y, Z).

b0(a, b). b0(c, d). b0(e, a).
b1(a, d). b1(b, d). b1(c, a). b1(e, b).
`)
	got := evalTransformed(t, fx, "p(a, Y)", false)
	want := seminaiveRows(t, fx, "p(a, Y)")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

// The paper's non-chain counterexample: with b1(a,b), b0(b,c) the correct
// answer to p(a,Y) is {b}; the unchecked transformation loses the
// connection between the head's free Y and the in group's Y and computes
// a superset. Transform must refuse it unless unsafe is set.
func TestNonChainCounterexample(t *testing.T) {
	fx := load(t, `
p(X, Y) :- b0(X, Y).
p(X, Y) :- b1(X, Y), p(Y, Z).

b1(a, b). b0(b, c).
`)
	q := parser.MustParseQuery("p(a, Y)", fx.st)
	if _, err := Transform(fx.prog, q, fx.store, false); err == nil {
		t.Fatal("non-chain program transformed without error")
	}
	// Unsafe mode reproduces the superset phenomenon.
	got := evalTransformed(t, fx, "p(a, Y)", true)
	want := seminaiveRows(t, fx, "p(a, Y)")
	if reflect.DeepEqual(got, want) {
		t.Fatalf("counterexample unexpectedly matched: got %v want %v", got, want)
	}
	if len(got) <= len(want) {
		t.Fatalf("expected a strict superset: got %v want %v", got, want)
	}
}

// sg(a, b) uses both bindings: the bin program's source tuple carries
// both constants and evaluation touches only the relevant region.
func TestSGBothBound(t *testing.T) {
	fx := load(t, `
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).

up(john, p1). up(ann, p1). flat(p1, p1).
down(p1, john). down(p1, ann).
`)
	got := evalTransformed(t, fx, "sg(john, ann)", false)
	if len(got) != 1 { // single empty row: the fact holds
		t.Fatalf("sg(john, ann) rows = %v", got)
	}
	got = evalTransformed(t, fx, "sg(john, p1)", false)
	if len(got) != 0 {
		t.Fatalf("sg(john, p1) rows = %v", got)
	}
}

// Property: on random chain-friendly programs (right-linear ternary
// reachability with side conditions), the Section 4 pipeline agrees with
// seminaive for random data.
func TestRandomTernaryAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := symtab.NewTable()
		res := parser.MustParse(`
path(X, C, Y) :- edge(X, C, Y).
path(X, C, Y) :- edge(X, C, Z), path(Z, C, Y).
`, st)
		store := edb.NewStore(st)
		nodes := 8
		colors := []string{"red", "blue"}
		for k := 0; k < 18; k++ {
			store.Insert("edge",
				st.Intern(fmt.Sprintf("n%d", rng.Intn(nodes))),
				st.Intern(colors[rng.Intn(2)]),
				st.Intern(fmt.Sprintf("n%d", rng.Intn(nodes))))
		}
		q := parser.MustParseQuery("path(n0, red, Y)", st)
		tr, err := Transform(res.Program, q, store, false)
		if err != nil {
			t.Logf("seed %d: transform: %v", seed, err)
			return false
		}
		sys, err := equations.Transform(tr.Program)
		if err != nil {
			t.Logf("seed %d: equations: %v", seed, err)
			return false
		}
		run := tr.NewRun()
		r, err := chaineval.New(sys, &run, chaineval.Options{}).Query(tr.QueryPred, run.Bind(nil))
		if err != nil {
			t.Logf("seed %d: engine: %v", seed, err)
			return false
		}
		gotRows := run.DecodeAnswers(r.Answers)
		got := map[string]bool{}
		for _, row := range gotRows {
			got[st.Name(row[0])] = true
		}
		idb, _, err := bottomup.Seminaive(res.Program, store)
		if err != nil {
			return false
		}
		wantRows := bottomup.Answer(idb, q)
		if len(wantRows) != len(got) {
			t.Logf("seed %d: got %v want %v", seed, got, wantRows)
			return false
		}
		for _, row := range wantRows {
			if !got[st.Name(row[0])] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDescribe(t *testing.T) {
	fx := load(t, flightSrc)
	q := parser.MustParseQuery("cnx(hel, 900, D, AT)", fx.st)
	tr, err := Transform(fx.prog, q, fx.store, false)
	if err != nil {
		t.Fatal(err)
	}
	d := tr.Describe()
	if d == "" || !contains(d, "bin_cnx_bbff") {
		t.Fatalf("Describe = %q", d)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// FromAdorned on a hand-built adorned program exercises identity
// detection for in-r (i = 0 and X̄b == Z̄b).
func TestInIdentityOmitted(t *testing.T) {
	fx := load(t, `
q(X, Y) :- base(X, Y).
q(X, Y) :- q(X, Z), step(Z, Y).
base(a, b). step(b, c). step(c, d).
`)
	qy := parser.MustParseQuery("q(a, Y)", fx.st)
	ap, err := adorn.Adorn(fx.prog, qy)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := FromAdorned(ap, fx.store)
	if err != nil {
		t.Fatal(err)
	}
	// Recursive rule: q(X,Y) :- q(X,Z), step(Z,Y); in group empty and
	// Xb == Zb == (X) → in-r omitted; body = bin, out-r.
	var rec ast.Rule
	for _, r := range tr.Program.Rules {
		if len(r.Body) > 1 || (len(r.Body) == 1 && r.Body[0].Pred == "bin_q_bf") {
			rec = r
		}
	}
	foundIn := false
	for _, l := range rec.Body {
		if len(l.Pred) >= 3 && l.Pred[:3] == "in_" {
			foundIn = true
		}
	}
	if foundIn {
		t.Fatalf("identity in-r not omitted: %s", rec.Render(fx.st))
	}
	// End to end answers.
	got := evalTransformed(t, fx, "q(a, Y)", false)
	want := seminaiveRows(t, fx, "q(a, Y)")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

// A sharded Section 4 call: every level of path(r, red, Y) holds 300
// tuple terms, more than the engine shards at, so two workers probe the
// virtual relations and number terms in one run at once. Their answers
// and work are one worker's, and the answers are the fixpoint's. Run
// under -race.
func TestShardedSection4Call(t *testing.T) {
	const width = 300
	st := symtab.NewTable()
	res := parser.MustParse(`
path(X, C, Y) :- edge(X, C, Y).
path(X, C, Y) :- edge(X, C, Z), path(Z, C, Y).
`, st)
	store := edb.NewStore(st)
	red, blue := st.Intern("red"), st.Intern("blue")
	for i := range width {
		n, m := st.Intern(fmt.Sprintf("n%d", i)), st.Intern(fmt.Sprintf("m%d", i))
		store.Insert("edge", st.Intern("r"), red, n)
		store.Insert("edge", n, red, m)
		store.Insert("edge", m, blue, st.Intern(fmt.Sprintf("b%d", i)))
	}
	q := parser.MustParseQuery("path(r, red, Y)", st)
	tr, err := Transform(res.Program, q, store, false)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := equations.Transform(tr.Program)
	if err != nil {
		t.Fatal(err)
	}
	eng := chaineval.New(sys, nil, chaineval.Options{})
	query := func(workers int) ([][]symtab.Sym, chaineval.Result) {
		run := tr.NewRun()
		answers, r, err := eng.Over(&run).QueryInto(nil, tr.QueryPred, run.Bind(nil), nil, 0, workers)
		if err != nil {
			t.Fatal(err)
		}
		return run.DecodeAnswers(answers), r
	}
	// A run numbers its terms as its workers meet them, so the answers
	// are compared as values.
	ys := func(rows [][]symtab.Sym) []symtab.Sym {
		var out []symtab.Sym
		for _, row := range rows {
			out = append(out, row[0])
		}
		slices.Sort(out)
		return out
	}
	want, seq := query(1)
	if len(want) != 2*width {
		t.Fatalf("one worker found %d answers, want %d", len(want), 2*width)
	}
	got, par := query(2)
	if !slices.Equal(ys(got), ys(want)) || !reflect.DeepEqual(par, seq) {
		t.Fatalf("two workers: %d answers, %+v; one worker: %d answers, %+v", len(got), par, len(want), seq)
	}
	idb, _, err := bottomup.Seminaive(res.Program, store)
	if err != nil {
		t.Fatal(err)
	}
	if fix := bottomup.Answer(idb, q); !slices.Equal(ys(got), ys(fix)) {
		t.Fatalf("the fixpoint answers %d rows, two workers %d", len(fix), len(got))
	}
}
