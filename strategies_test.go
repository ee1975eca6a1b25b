package chainlog

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"testing/quick"

	"chainlog/internal/edb"
	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

// Cross-strategy agreement on random same-generation databases: every
// strategy must return identical answer sets for identical queries. This
// is the module-level integration property tying the whole pipeline
// (parser → analysis → equations → automata → traversal, plus all
// comparison methods) together.
func TestAllStrategiesAgreeOnRandomData(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB()
		if err := db.LoadProgram(workload.SGProgram); err != nil {
			return false
		}
		n := 10
		name := func(i int) string { return fmt.Sprintf("n%d", i) }
		for k := 0; k < 20; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				db.Assert("up", name(i), name(j))
			case 1:
				db.Assert("down", name(i), name(j))
			default:
				db.Assert("flat", name(i), name(j))
			}
		}
		// up may be cyclic here: chain relies on the m·n guard; the
		// bottom-up methods and the QSQ net iterate to fixpoint regardless.
		query := "sg(n0, Y)"
		ref, err := db.QueryOpts(query, Options{Strategy: Seminaive})
		if err != nil {
			return false
		}
		for _, s := range Strategies() {
			a, err := db.QueryOpts(query, Options{Strategy: s})
			if err != nil {
				t.Logf("seed %d strategy %v: %v", seed, s, err)
				return false
			}
			if !reflect.DeepEqual(a.Rows, ref.Rows) {
				t.Logf("seed %d strategy %v: %v != %v", seed, s, a.Rows, ref.Rows)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Forcing a binary-chain query through the Section 4 transformation
// changes its route, never its answer: on sg and tc, for every binary
// binding pattern (the diagonal p(X, X) included), through Run, RunBatch
// (a repeated vector and an unknown constant among its vectors) and
// RunSymsFunc, the forced chain plan's rows are the direct one's.
func TestForceSection4MatchesDirect(t *testing.T) {
	programs := []struct {
		name, src string
		data      func(st *symtab.Table, seed int64) (*edb.Store, symtab.Sym)
		other     string // a second constant of the data, for the batch
	}{
		{"sg", workload.SGProgram, func(st *symtab.Table, seed int64) (*edb.Store, symtab.Sym) {
			w := workload.RandomTree(st, 20, 0.4, seed)
			return w.Store, w.Query
		}, "p0"},
		{"tc", "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n", func(st *symtab.Table, seed int64) (*edb.Store, symtab.Sym) {
			return workload.RandomGraph(st, 12, 18, seed)
		}, "v1"},
	}
	direct, forced := Options{Strategy: Chain}, Options{Strategy: Chain, forceSection4: true}
	for _, prog := range programs {
		for _, pattern := range []string{"(?, Y)", "(X, ?)", "(X, Y)", "(X, X)"} {
			tmpl := prog.name + pattern
			t.Run(tmpl, func(t *testing.T) {
				rows := 0
				defer func() {
					if rows == 0 {
						t.Error("no seed answers anything: the comparison is vacuous")
					}
				}()
				for seed := int64(1); seed <= 10; seed++ {
					db := mustDB(t, prog.src)
					store, c := prog.data(db.SymTab(), seed)
					db.SetStore(store)
					var (
						one   []string
						batch [][]string
					)
					if strings.Contains(pattern, "?") {
						one, batch = []string{db.Name(c)}, [][]string{{db.Name(c)}, {prog.other}, {db.Name(c)}, {"nosuch"}}
					} else {
						batch = [][]string{nil, nil}
					}
					want := runAllEntryPoints(t, db, tmpl, direct, one, batch)
					got := runAllEntryPoints(t, db, tmpl, forced, one, batch)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d: forced Section 4 %v, direct %v", seed, got, want)
					}
					rows += len(want[0])
					explained, err := db.ExplainOpts(strings.Replace(tmpl, "?", db.Name(c), 1), forced)
					if err != nil || !strings.Contains(explained, "bin_"+prog.name) {
						t.Fatalf("seed %d: forced plan is not Section 4 (%v):\n%s", seed, err, explained)
					}
				}
			})
		}
	}
}

// runAllEntryPoints prepares tmpl under opts, which pin the chain route,
// and answers it through Run (with one), RunBatch (with batch) and
// RunSymsFunc (with one), each answer's rows in order.
func runAllEntryPoints(t *testing.T, db *DB, tmpl string, opts Options, one []string, batch [][]string) [][][]string {
	t.Helper()
	p, err := db.Prepare(tmpl, opts)
	if err != nil {
		t.Fatalf("Prepare(%s): %v", tmpl, err)
	}
	if ran := p.Plan().Strategy; ran != Chain {
		t.Fatalf("Prepare(%s, %+v) runs %v, not the chain route", tmpl, opts, ran)
	}
	ans, err := p.Run(one...)
	if err != nil {
		t.Fatalf("Run(%s, %v): %v", tmpl, one, err)
	}
	out := [][][]string{ans.Rows}
	answers, err := p.RunBatch(batch)
	if err != nil {
		t.Fatalf("RunBatch(%s, %v): %v", tmpl, batch, err)
	}
	for _, a := range answers {
		out = append(out, a.Rows)
	}
	syms := make([]symtab.Sym, len(one))
	for i, name := range one {
		syms[i] = db.Intern(name)
	}
	var streamed [][]string
	err = p.RunSymsFunc(func(row []symtab.Sym) {
		names := make([]string, len(row))
		for i, s := range row {
			names[i] = db.Name(s)
		}
		streamed = append(streamed, names)
	}, syms...)
	if err != nil {
		t.Fatalf("RunSymsFunc(%s, %v): %v", tmpl, one, err)
	}
	sortRows(streamed)
	return append(out, streamed)
}

func TestParseStrategyRoundTrip(t *testing.T) {
	var names []string
	for _, s := range Strategies() {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
		names = append(names, s.String())
	}
	// A rejected name comes back with Auto and the names that are valid;
	// the paper's baselines additionally say where they are run.
	for name, baseline := range map[string]bool{
		"nope": false, "qsq": false, "naive": false,
		"magic": true, "counting": true, "reverse-counting": true, "henschen-naqvi": true, "hn": true, "hunt": true,
	} {
		s, err := ParseStrategy(name)
		if err == nil || s != Auto {
			t.Errorf("ParseStrategy(%q) = %v, %v; want auto and an error", name, s, err)
			continue
		}
		if !strings.Contains(err.Error(), strings.Join(names, ", ")) {
			t.Errorf("ParseStrategy(%q) error does not list the valid names: %v", name, err)
		}
		if strings.Contains(err.Error(), "cmd/benchtables") != baseline {
			t.Errorf("ParseStrategy(%q) error: %v (baseline=%v)", name, err, baseline)
		}
	}
	if s, err := ParseStrategy(""); err != nil || s != Auto {
		t.Error("empty strategy should default to auto (optimizer-chosen)")
	}
	if Strategy(99).String() == "" {
		t.Error("out-of-range strategy String empty")
	}
}

// The CI strategy matrices pin every strategy but auto, one leg each: a
// strategy added to or dropped from Strategies() must move both workflow
// files with it.
func TestStrategyMatrixMatchesStrategies(t *testing.T) {
	var want []string
	for _, s := range Strategies()[1:] {
		want = append(want, s.String())
	}
	matrix := regexp.MustCompile(`(?m)^\s*strategy: \[(.*)\]\s*$`)
	for _, f := range []string{"ci.yml", "nightly.yml"} {
		raw, err := os.ReadFile(filepath.Join(".github", "workflows", f))
		if err != nil {
			t.Fatal(err)
		}
		legs := matrix.FindAllStringSubmatch(string(raw), -1)
		if len(legs) == 0 {
			t.Errorf("%s has no strategy matrix", f)
		}
		for _, m := range legs {
			if got := strings.Split(m[1], ", "); !reflect.DeepEqual(got, want) {
				t.Errorf("%s strategy matrix %v, want %v", f, got, want)
			}
		}
	}
}

func TestStrategyErrors(t *testing.T) {
	db := mustDB(t, sgSrc)
	// Unknown predicate.
	if _, err := db.Query("nosuch(a, Y)"); err == nil {
		// nosuch is not derived and has no facts: base query returns
		// empty rather than erroring — that is fine; check arity error
		// path instead.
		ans, err2 := db.Query("up(a, Y, Z)")
		if err2 == nil && ans != nil && len(ans.Rows) > 0 {
			t.Error("arity-mismatched base query returned rows")
		}
	}
}

func TestExplainBinaryChain(t *testing.T) {
	db := mustDB(t, sgSrc)
	text, err := db.Explain("sg(john, Y)")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sg = flat U up.sg.down", "automaton M(e_sg)", "-sg->"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Explain missing %q:\n%s", want, text)
		}
	}
}

// Explain of p(X, b) shows the automaton that runs: M(e_sg) of the
// reversed system, with inverted base labels, and says so.
func TestExplainInverseShowsReversedAutomaton(t *testing.T) {
	db := mustDB(t, sgSrc)
	text, err := db.ExplainOpts("sg(X, john)", Options{Strategy: Chain})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sg = flat U up.sg.down", "sg = flat~ U down~.sg.up~", "automaton M(e_sg) of the reversed system:\n", "-flat~->", "-down~->", "-up~->"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Explain missing %q:\n%s", want, text)
		}
	}
	for _, forward := range []string{"-flat->", "-down->", "-up->"} {
		if strings.Contains(text, forward) {
			t.Fatalf("Explain shows the forward automaton (%q), which p(X, b) never runs:\n%s", forward, text)
		}
	}
}

func TestExplainSection4(t *testing.T) {
	db := mustDB(t, `
cnx(S, DT, D, AT) :- flight(S, DT, D, AT).
cnx(S, DT, D, AT) :- flight(S, DT, D1, AT1), AT1 < DT1, is_deptime(DT1), cnx(D1, DT1, D, AT).
flight(hel, 900, sto, 1000).
is_deptime(900).
`)
	text, err := db.Explain("cnx(hel, 900, D, AT)")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cnx^bbff", "bin_cnx_bbff", "in_r2", "automaton M(e_bin_cnx_bbff):\n"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Explain missing %q:\n%s", want, text)
		}
	}
}

func TestExplainNonChain(t *testing.T) {
	db := mustDB(t, `
p(X, Y) :- b0(X, Y).
p(X, Y) :- b1(X, Y), p(Y, Z).
b0(a, b). b1(a, b).
`)
	text, err := db.Explain("p(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "NOT a chain program") {
		t.Fatalf("Explain should flag the non-chain program:\n%s", text)
	}
}

func TestExplainBasePredicate(t *testing.T) {
	db := mustDB(t, `edge(a, b).`)
	text, err := db.Explain("edge(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "extensional") {
		t.Fatalf("Explain(base) = %q", text)
	}
}

func TestClassification(t *testing.T) {
	db := mustDB(t, sgSrc)
	c := db.Classify()
	if !c.Recursive || !c.Linear || !c.BinaryChain || c.Regular || !c.SingleDerivedBody {
		t.Fatalf("Classify = %+v", c)
	}
	db2 := mustDB(t, `
t(X, Z) :- t(X, Y), t(Y, Z).
t(X, Y) :- e(X, Y).
e(a, b).
`)
	c2 := db2.Classify()
	if c2.Linear || c2.SingleDerivedBody {
		t.Fatalf("Classify quadratic tc = %+v", c2)
	}
}

func TestDynamicFactsVisible(t *testing.T) {
	db := mustDB(t, `
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(a, b).
`)
	ans, err := db.Query("tc(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 1 {
		t.Fatalf("rows = %v", ans.Rows)
	}
	// Facts inserted after the first query are picked up — the engine
	// reads the store on demand.
	db.Assert("edge", "b", "c")
	ans, err = db.Query("tc(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 2 {
		t.Fatalf("rows after insert = %v", ans.Rows)
	}
}

// Propositional (zero-arity) predicates evaluate with the general
// strategies.
func TestZeroArityQuery(t *testing.T) {
	db := mustDB(t, `
ok :- edge(a, b).
missing :- edge(b, a).
edge(a, b).
`)
	ans, err := db.QueryOpts("ok", Options{Strategy: Seminaive})
	if err != nil {
		t.Fatal(err)
	}
	if !ans.True {
		t.Fatal("ok should hold")
	}
	ans, err = db.QueryOpts("missing", Options{Strategy: QSQNet})
	if err != nil {
		t.Fatal(err)
	}
	if ans.True {
		t.Fatal("missing should not hold")
	}

	// A derived zero-arity literal in a rule body is a subquery like any
	// other: the net gives it a node, and a second rule deriving facts of
	// the same head runs beside it.
	db = mustDB(t, `
ok :- edge(a, b).
missing :- edge(b, a).
good(X) :- edge(X, Y), ok.
good(X) :- start(X).
bad(X) :- edge(X, Y), missing.
edge(a, b). edge(b, c). start(z).
`)
	for _, c := range []struct{ query, want string }{
		{"good(X)", "[[a] [b] [z]]"},
		{"bad(X)", "[]"},
	} {
		for _, s := range []Strategy{QSQNet, Seminaive} {
			ans, err := db.QueryOpts(c.query, Options{Strategy: s})
			if err != nil {
				t.Fatalf("%s under %v: %v", c.query, s, err)
			}
			if got := fmt.Sprint(ans.Rows); got != c.want {
				t.Errorf("%s under %v = %s, want %s", c.query, s, got, c.want)
			}
		}
	}
	for q, want := range map[string]bool{"good(a)": true, "good(b)": true, "good(z)": true, "good(c)": false} {
		for _, s := range []Strategy{QSQNet, Seminaive} {
			if ans, err := db.QueryOpts(q, Options{Strategy: s}); err != nil || ans.True != want {
				t.Errorf("%s under %v: true=%v err=%v, want %v", q, s, ans.True, err, want)
			}
		}
	}
}

func TestLoadProgramErrors(t *testing.T) {
	db := NewDB()
	if err := db.LoadProgram("p(X :- q(X)."); err == nil {
		t.Error("syntax error accepted")
	}
	if err := db.LoadProgram("p(X, Y) :- q(X, Y)."); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadProgram("p(a, b)."); err == nil {
		t.Error("fact for derived predicate accepted")
	}
}

// On cyclic data the chain route ends by the m·n cyclic guard with the
// whole answer. (A run cut short by an iteration cap is the engine's
// business: chaineval's TestCyclicWithoutGuardHitsCap.)
func TestCyclicGuardAnswersInFull(t *testing.T) {
	db := NewDB()
	if err := db.LoadProgram(workload.SGProgram); err != nil {
		t.Fatal(err)
	}
	w := workload.Cyclic(db.SymTab(), 3, 4)
	db.SetStore(w.Store)
	full, err := db.QueryOpts("sg(ca0, Y)", Options{Strategy: Chain})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Strategy != Chain || len(full.Rows) != 4 {
		t.Fatalf("guarded cyclic run answers %d rows, want 4: %+v", len(full.Rows), full.Stats)
	}
}

func TestSetStoreForeignTablePanics(t *testing.T) {
	db := NewDB()
	other := NewDB()
	w := workload.SampleA(other.SymTab(), 3)
	defer func() {
		if recover() == nil {
			t.Fatal("SetStore with foreign symtab did not panic")
		}
	}()
	db.SetStore(w.Store)
}

// A comparison whose variable no body atom binds can never be evaluated,
// so the rule derives nothing — under every strategy, as under the
// naiveeval oracle. A strategy may reject the program with an error; it
// may not return rows. A materialized view stays empty too.
func TestUnboundBuiltinVariableDerivesNothing(t *testing.T) {
	cases := []struct{ name, src, query string }{
		{"unary", "q(a). q(b).\np(X) :- q(X), X < Y.", "p(X)"},
		{"binary", "e(a, b). e(b, c).\np(X, Y) :- e(X, Y), Y < Z.", "p(a, Y)"},
	}
	for _, c := range cases {
		db := NewDB()
		if err := db.LoadProgram(c.src); err != nil {
			t.Fatal(err)
		}
		for _, s := range Strategies() {
			ans, err := db.QueryOpts(c.query, Options{Strategy: s})
			if err != nil {
				continue
			}
			if len(ans.Rows) != 0 {
				t.Errorf("%s, %v: %s = %v, want no rows", c.name, s, c.query, ans.Rows)
			}
		}
		p, err := db.Prepare(c.query, Options{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := p.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if rows, _ := m.Snapshot(); len(rows) != 0 {
			t.Errorf("%s: materialized %s = %v, want no rows", c.name, c.query, rows)
		}
		m.Close()
	}
}
