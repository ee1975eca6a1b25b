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
	idb, stats, err := Naive(fx.prog, fx.store)
	if err != nil {
		t.Fatal(err)
	}
	if idb.Relation("tc").Len() != 6 {
		t.Fatalf("tc has %d tuples, want 6", idb.Relation("tc").Len())
	}
	if stats.Derived != 6 {
		t.Fatalf("Derived = %d", stats.Derived)
	}
	q := parser.MustParseQuery("tc(a, Y)", fx.st)
	got := rowsToStrings(fx.st, Answer(idb, q))
	want := [][]string{{"b"}, {"c"}, {"d"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("answer = %v", got)
	}
}

func TestSeminaiveMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := symtab.NewTable()
		res := parser.MustParse(`
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
`, st)
		store := edb.NewStore(st)
		n := 8
		for k := 0; k < 14; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				store.Insert("up", sym(st, i), sym(st, j))
			case 1:
				store.Insert("down", sym(st, i), sym(st, j))
			default:
				store.Insert("flat", sym(st, i), sym(st, j))
			}
		}
		ni, _, err := Naive(res.Program, store)
		if err != nil {
			return false
		}
		si, _, err := Seminaive(res.Program, store)
		if err != nil {
			return false
		}
		return relEqual(ni.Relation("sg"), si.Relation("sg"))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func sym(st *symtab.Table, i int) symtab.Sym {
	return st.Intern(fmt.Sprintf("n%d", i))
}

func relEqual(a, b *edb.Relation) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !b.Contains(a.Tuple(i)) {
			return false
		}
	}
	return true
}

// Seminaive avoids re-firing: on a chain, naive refires every rule on all
// previously derived facts each round, seminaive only on the delta.
func TestSeminaiveFiresLess(t *testing.T) {
	st := symtab.NewTable()
	res := parser.MustParse(`
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
`, st)
	store := edb.NewStore(st)
	for i := 0; i < 30; i++ {
		store.Insert("edge", sym(st, i), sym(st, i+1))
	}
	_, ns, err := Naive(res.Program, store)
	if err != nil {
		t.Fatal(err)
	}
	_, ss, err := Seminaive(res.Program, store)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Firings >= ns.Firings {
		t.Fatalf("seminaive firings %d not below naive %d", ss.Firings, ns.Firings)
	}
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
	idb, _, err := Naive(fx.prog, fx.store)
	if err != nil {
		t.Fatal(err)
	}
	if idb.Relation("refl").Len() != 0 {
		t.Fatal("identity rule derived ground facts bottom-up")
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
	ni, _, err := Naive(fx.prog, fx.store)
	if err != nil {
		t.Fatal(err)
	}
	si, _, err := Seminaive(fx.prog, fx.store)
	if err != nil {
		t.Fatal(err)
	}
	if !relEqual(ni.Relation("even"), si.Relation("even")) || !relEqual(ni.Relation("odd"), si.Relation("odd")) {
		t.Fatal("naive and seminaive disagree on mutual recursion")
	}
}

func TestArityErrorPropagates(t *testing.T) {
	st := symtab.NewTable()
	prog := &ast.Program{Rules: []ast.Rule{
		{Head: ast.Atom("p", ast.V("X")), Body: []ast.Literal{ast.Atom("q", ast.V("X"), ast.V("X"))}},
		{Head: ast.Atom("p", ast.V("X"), ast.V("Y")), Body: []ast.Literal{ast.Atom("q", ast.V("X"), ast.V("Y"))}},
	}}
	if _, _, err := Naive(prog, edb.NewStore(st)); err == nil {
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
	runs := map[string]func(context.Context, *ast.Program, *edb.Store) (*edb.Store, Stats, error){
		"naive": NaiveCtx, "seminaive": SeminaiveCtx,
	}
	for name, run := range runs {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		start := time.Now()
		_, _, err := run(ctx, fx.prog, fx.store)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: error %v, want the deadline", name, err)
		}
		if elapsed > time.Second {
			t.Errorf("%s: returned after %v, want well under a second", name, elapsed)
		}
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
