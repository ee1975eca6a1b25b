package bottomup

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"chainlog/internal/ast"
	"chainlog/internal/edb"
	"chainlog/internal/naiveeval"
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

func rowsToStrings(st *symtab.Table, rows [][]symtab.Sym) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		row := make([]string, len(r))
		for j, s := range r {
			row[j] = st.Name(s)
		}
		out[i] = row
	}
	return out
}

func TestNaiveTransitiveClosure(t *testing.T) {
	fx := load(t, `
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(a, b). edge(b, c). edge(c, d).
`)
	idb, stats, err := SeminaiveCtx(context.Background(), fx.prog, fx.store)
	if err != nil {
		t.Fatal(err)
	}
	if idb.Relation("tc").Len() != 6 {
		t.Fatalf("tc has %d tuples, want 6", idb.Relation("tc").Len())
	}
	if stats.Derived != 6 {
		t.Fatalf("Derived = %d", stats.Derived)
	}
	for _, text := range []string{"tc(a, Y)", "tc(X, Y)", "tc(X, d)"} {
		q := parser.MustParseQuery(text, fx.st)
		if got, want := Answer(idb, q), fx.oracle(q); !sameRows(got, want) {
			t.Fatalf("%s = %v, naiveeval %v", text, rowsToStrings(fx.st, got), rowsToStrings(fx.st, want))
		}
	}
	q := parser.MustParseQuery("tc(a, Y)", fx.st)
	got := rowsToStrings(fx.st, Answer(idb, q))
	want := [][]string{{"b"}, {"c"}, {"d"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("answer = %v", got)
	}
}

// oracle answers q with naiveeval over the fixture's facts, the evaluator
// that shares nothing with this package.
func (fx *fixture) oracle(q ast.Query) [][]symtab.Sym {
	facts := naiveeval.NewFacts()
	for _, pred := range fx.store.Relations() {
		fx.store.Relation(pred).Each(func(tuple []symtab.Sym) { facts.Assert(pred, tuple) })
	}
	return naiveeval.Answer(fx.prog, facts, fx.st, q)
}

// sameRows compares two sorted answers, nil and empty alike.
func sameRows(a, b [][]symtab.Sym) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func TestSeminaiveMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := symtab.NewTable()
		res := parser.MustParse(`
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
`, st)
		fx := &fixture{st: st, store: edb.NewStore(st), prog: res.Program}
		n := 8
		for k := 0; k < 14; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				fx.store.Insert("up", sym(st, i), sym(st, j))
			case 1:
				fx.store.Insert("down", sym(st, i), sym(st, j))
			default:
				fx.store.Insert("flat", sym(st, i), sym(st, j))
			}
		}
		si, _, err := Seminaive(res.Program, fx.store)
		if err != nil {
			return false
		}
		q := parser.MustParseQuery("sg(X, Y)", st)
		return sameRows(Answer(si, q), fx.oracle(q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func sym(st *symtab.Table, i int) symtab.Sym {
	return st.Intern(fmt.Sprintf("n%d", i))
}

func TestBuiltinFilters(t *testing.T) {
	fx := load(t, `
small(X) :- num(X), X < 3.
big(X) :- num(X), X >= 3.
num(1). num(2). num(3). num(4).
`)
	idb, _, err := Seminaive(fx.prog, fx.store)
	if err != nil {
		t.Fatal(err)
	}
	q := parser.MustParseQuery("small(X)", fx.st)
	got := rowsToStrings(fx.st, Answer(idb, q))
	if !reflect.DeepEqual(got, [][]string{{"1"}, {"2"}}) {
		t.Fatalf("small = %v", got)
	}
	q = parser.MustParseQuery("big(X)", fx.st)
	got = rowsToStrings(fx.st, Answer(idb, q))
	if !reflect.DeepEqual(got, [][]string{{"3"}, {"4"}}) {
		t.Fatalf("big = %v", got)
	}
}

func TestCompareSemantics(t *testing.T) {
	st := symtab.NewTable()
	n1, n2 := st.Intern("2"), st.Intern("10")
	// Numeric comparison: 2 < 10.
	if !Compare(st, ast.OpLT, n1, n2) {
		t.Fatal("numeric 2 < 10 failed")
	}
	// Lexicographic fallback: "abc" < "abd".
	s1, s2 := st.Intern("abc"), st.Intern("abd")
	if !Compare(st, ast.OpLT, s1, s2) {
		t.Fatal("string abc < abd failed")
	}
	if !Compare(st, ast.OpEQ, n1, n1) || Compare(st, ast.OpNE, n1, n1) {
		t.Fatal("equality ops broken")
	}
	if !Compare(st, ast.OpGE, n2, n1) || !Compare(st, ast.OpGT, n2, n1) || !Compare(st, ast.OpLE, n1, n2) {
		t.Fatal("ordering ops broken")
	}
}

func TestEmptyBodySeedRule(t *testing.T) {
	st := symtab.NewTable()
	prog := &ast.Program{Rules: []ast.Rule{
		{Head: ast.Atom("m", ast.C(st.Intern("a")))}, // seed: m(a) :- .
		{Head: ast.Atom("p", ast.V("X"), ast.V("Y")),
			Body: []ast.Literal{ast.Atom("m", ast.V("X")), ast.Atom("e", ast.V("X"), ast.V("Y"))}},
	}}
	store := edb.NewStore(st)
	store.Insert("e", st.Intern("a"), st.Intern("b"))
	store.Insert("e", st.Intern("c"), st.Intern("d"))
	idb, _, err := Seminaive(prog, store)
	if err != nil {
		t.Fatal(err)
	}
	if idb.Relation("p").Len() != 1 {
		t.Fatalf("p = %d tuples (seed rule broken)", idb.Relation("p").Len())
	}
}

func TestIdentityRuleDerivesNothing(t *testing.T) {
	fx := load(t, `
refl(X, X).
e(a, b).
`)
	idb, _, err := SeminaiveCtx(context.Background(), fx.prog, fx.store)
	if err != nil {
		t.Fatal(err)
	}
	if idb.Relation("refl").Len() != 0 {
		t.Fatal("identity rule derived ground facts bottom-up")
	}
	if rows := fx.oracle(parser.MustParseQuery("refl(X, Y)", fx.st)); len(rows) != 0 {
		t.Fatalf("naiveeval derived %v from the identity rule", rows)
	}
}

func TestAnswerRepeatedVariable(t *testing.T) {
	fx := load(t, `
p(X, Y) :- e(X, Y).
e(a, a). e(a, b).
`)
	idb, _, err := Seminaive(fx.prog, fx.store)
	if err != nil {
		t.Fatal(err)
	}
	q := parser.MustParseQuery("p(X, X)", fx.st)
	got := rowsToStrings(fx.st, Answer(idb, q))
	if !reflect.DeepEqual(got, [][]string{{"a"}}) {
		t.Fatalf("p(X,X) = %v", got)
	}
}

func TestAnswerBoundArgs(t *testing.T) {
	fx := load(t, `
p(X, Y) :- e(X, Y).
e(a, b). e(a, c). e(b, c).
`)
	idb, _, err := Seminaive(fx.prog, fx.store)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsToStrings(fx.st, Answer(idb, parser.MustParseQuery("p(a, Y)", fx.st)))
	if !reflect.DeepEqual(got, [][]string{{"b"}, {"c"}}) {
		t.Fatalf("p(a,Y) = %v", got)
	}
	// Fully bound.
	rows := Answer(idb, parser.MustParseQuery("p(a, b)", fx.st))
	if len(rows) != 1 || len(rows[0]) != 0 {
		t.Fatalf("p(a,b) = %v", rows)
	}
	rows = Answer(idb, parser.MustParseQuery("p(c, a)", fx.st))
	if len(rows) != 0 {
		t.Fatalf("p(c,a) = %v", rows)
	}
}

func TestMutualRecursion(t *testing.T) {
	fx := load(t, `
even(X, Y) :- e(X, Y), e(Y, X).
even(X, Z) :- e(X, Y), odd(Y, Z).
odd(X, Z) :- e(X, Y), even(Y, Z).
e(a, b). e(b, a). e(b, c). e(c, b).
`)
	si, _, err := Seminaive(fx.prog, fx.store)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{"even(X, Y)", "odd(X, Y)"} {
		q := parser.MustParseQuery(text, fx.st)
		if got, want := Answer(si, q), fx.oracle(q); !sameRows(got, want) || len(want) == 0 {
			t.Fatalf("%s: seminaive %v, naiveeval %v", text, rowsToStrings(fx.st, got), rowsToStrings(fx.st, want))
		}
	}
}

func TestArityErrorPropagates(t *testing.T) {
	st := symtab.NewTable()
	prog := &ast.Program{Rules: []ast.Rule{
		{Head: ast.Atom("p", ast.V("X")), Body: []ast.Literal{ast.Atom("q", ast.V("X"), ast.V("X"))}},
		{Head: ast.Atom("p", ast.V("X"), ast.V("Y")), Body: []ast.Literal{ast.Atom("q", ast.V("X"), ast.V("Y"))}},
	}}
	if _, _, err := SeminaiveCtx(context.Background(), prog, edb.NewStore(st)); err == nil {
		t.Fatal("arity conflict accepted")
	}
}

// One rule, one join of 64 million solutions: the deadline must stop the
// fixpoint inside the join, not after the rule pass ends.
func TestDeadlineInterruptsSingleJoin(t *testing.T) {
	fx := load(t, "big(X, Y, Z) :- n(X), n(Y), n(Z).")
	for i := 0; i < 400; i++ {
		fx.store.Insert("n", fx.st.Intern(fmt.Sprintf("c%d", i)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := SeminaiveCtx(ctx, fx.prog, fx.store)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("returned after %v, want well under a second", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v, want the deadline", err)
	}
}

// The literal order is fixed at compile time: a comparison as soon as its
// variables are bound, then the atom with the most bound arguments,
// deferred predicates losing ties, then body order.
func TestCompileOrder(t *testing.T) {
	fx := load(t, `
p(X, Z) :- p(X, Y), e(Y, Z), f(Z), Y < Z, X != c.
dead(X) :- e(X, Y), Y < W.
open(X, Y) :- e(X, X).
`)
	order := func(b *Body) []int {
		var pos []int
		for _, s := range b.Steps {
			pos = append(pos, s.Pos)
		}
		return pos
	}
	r := fx.prog.Rules[0]
	cases := []struct {
		name     string
		entry    []ast.Term
		pin      int
		deferred map[string]bool
		want     []int
	}{
		{"nothing bound", nil, -1, nil, []int{0, 4, 1, 3, 2}},
		{"derived deferred", nil, -1, map[string]bool{"p": true}, []int{1, 3, 2, 0, 4}},
		{"head bound", r.Head.Args, -1, nil, []int{4, 0, 3, 1, 2}},
		{"pinned", nil, 1, nil, []int{3, 0, 4, 2}},
	}
	for _, c := range cases {
		b := CompileRule(r, c.entry, c.pin, c.deferred)
		if b == nil {
			t.Fatalf("%s: rule compiled dead", c.name)
		}
		if got := order(b); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: order %v, want %v", c.name, got, c.want)
		}
	}
	if CompileRule(fx.prog.Rules[1], nil, -1, nil) != nil {
		t.Error("a comparison over a variable no atom binds compiled live")
	}
	if CompileRule(fx.prog.Rules[2], nil, -1, nil) != nil {
		t.Error("a rule that is not range-restricted compiled live")
	}
}

// dense returns a store holding the complete binary relation e over n
// constants, laid out as a program load lays a dense binary relation
// out (BuildBinary): a join over it reads every e probe with one column
// bound as a neighbor list.
func dense(t *testing.T, src string, n int) *fixture {
	t.Helper()
	fx := load(t, src)
	var pairs []symtab.Sym
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			pairs = append(pairs, fx.st.Intern(fmt.Sprintf("c%d", i)), fx.st.Intern(fmt.Sprintf("c%d", j)))
		}
	}
	if _, err := fx.store.BuildBinary("e", pairs); err != nil {
		t.Fatal(err)
	}
	return fx
}

// TestDeadlineInterruptsBinaryJoin is TestDeadlineInterruptsSingleJoin
// over binary atoms, whose probes with one column bound the join reads
// as neighbor lists: 146 million solutions, stopped inside the join.
func TestDeadlineInterruptsBinaryJoin(t *testing.T) {
	fx := dense(t, "p(X, Z) :- e(X, Y), e(Y, Z), e(Z, W).", 110)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := SeminaiveCtx(ctx, fx.prog, fx.store)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("returned after %v, want well under a second", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v, want the deadline", err)
	}
}

// countPolls is a context that never cancels and counts its polls.
type countPolls struct {
	context.Context
	polls int
}

func (c *countPolls) Done() <-chan struct{} {
	c.polls++
	return nil
}

// TestJoinPollsEveryCandidate: every candidate the join reads counts
// toward its poll stride, however it reads them — here a CSR scan and
// two neighbor lists a solution — so a run polls at least once per
// pollEvery of the tuples it retrieved.
func TestJoinPollsEveryCandidate(t *testing.T) {
	fx := dense(t, "p(X, Z) :- e(X, Y), e(Y, Z), e(Z, W).", 24)
	ctx := &countPolls{Context: context.Background()}
	_, stats, err := SeminaiveCtx(ctx, fx.prog, fx.store)
	if err != nil {
		t.Fatal(err)
	}
	if n := 24 * 24 * (1 + 24 + 24*24); stats.Retrieved != int64(n) {
		t.Fatalf("retrieved %d tuples, want %d", stats.Retrieved, n)
	}
	if want := int(stats.Retrieved / pollEvery); ctx.polls < want {
		t.Errorf("%d polls for %d candidates, want at least %d", ctx.polls, stats.Retrieved, want)
	}
}

// TestBinaryFallbacksMatchNaive holds the fixpoint to naiveeval on the
// binary bodies the join's fast paths do not take or take only in part:
// a repeated variable in one atom, constant arguments, both columns
// bound, a 3-ary derived head read back with a repeated variable, and a
// recursive rule probing with one column bound — over a relation
// inserted tuple by tuple, one built frozen, one written since its CSR
// was published (a probe of a written key merges the writes), and a
// frozen one thawed by a write.
func TestBinaryFallbacksMatchNaive(t *testing.T) {
	const rules = `
loop(X) :- e(X, X).
froma(Y) :- e(a, Y).
toa(X) :- e(X, a).
sym(X, Y) :- e(X, Y), e(Y, X).
path3(X, Y, Z) :- e(X, Y), e(Y, Z).
back(X, Y) :- path3(X, Y, X).
reach(X, Y) :- e(X, Y).
reach(X, Z) :- reach(X, Y), e(Y, Z).
`
	edges := [][2]string{{"a", "b"}, {"b", "a"}, {"b", "c"}, {"c", "c"}, {"c", "d"}, {"d", "a"}, {"e", "e"}, {"d", "f"}}
	// written toggles edges after the CSR is published: two asserted,
	// one retracted.
	write := func(fx *fixture) {
		e := fx.store.Relation("e")
		e.Successors(fx.st.Intern("a"))
		e.Predecessors(fx.st.Intern("a"))
		fx.store.Insert("e", fx.st.Intern("a"), fx.st.Intern("d"))
		fx.store.Insert("e", fx.st.Intern("f"), fx.st.Intern("a"))
		fx.store.Remove("e", fx.st.Intern("b"), fx.st.Intern("c"))
	}
	for _, c := range []struct {
		name           string
		frozen, writes bool
	}{
		{"inserted", false, false},
		{"frozen", true, false},
		{"inserted then written", false, true},
		{"frozen then thawed", true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			fx := load(t, rules)
			var pairs []symtab.Sym
			for _, e := range edges {
				u, v := fx.st.Intern(e[0]), fx.st.Intern(e[1])
				if c.frozen {
					pairs = append(pairs, u, v)
				} else {
					fx.store.Insert("e", u, v)
				}
			}
			if c.frozen {
				if _, err := fx.store.BuildBinary("e", pairs); err != nil {
					t.Fatal(err)
				}
			}
			if c.writes {
				write(fx)
			}
			if got := fx.store.Relation("e").Frozen(); got != (c.frozen && !c.writes) {
				t.Fatalf("e frozen = %v", got)
			}
			idb, _, err := Seminaive(fx.prog, fx.store)
			if err != nil {
				t.Fatal(err)
			}
			for _, text := range []string{"loop(X)", "froma(Y)", "toa(X)", "sym(X, Y)", "sym(X, X)",
				"path3(X, Y, Z)", "back(X, Y)", "reach(X, Y)", "reach(a, Y)", "reach(X, X)"} {
				q := parser.MustParseQuery(text, fx.st)
				if got, want := Answer(idb, q), fx.oracle(q); !sameRows(got, want) {
					t.Errorf("%s = %v, naiveeval %v", text, rowsToStrings(fx.st, got), rowsToStrings(fx.st, want))
				}
			}
		})
	}
}
