package magic

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"chainlog/internal/adorn"
	"chainlog/internal/ast"
	"chainlog/internal/bottomup"
	"chainlog/internal/edb"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
	"chainlog/internal/workload"
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

func TestRewriteStructure(t *testing.T) {
	fx := load(t, workload.SGProgram)
	q := parser.MustParseQuery("sg(john, Y)", fx.st)
	ap, err := adorn.Adorn(fx.prog, q)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := Rewrite(ap)
	if err != nil {
		t.Fatal(err)
	}
	// Expected: 2 modified rules + 1 magic rule + 1 seed = 4.
	if len(rw.Program.Rules) != 4 {
		t.Fatalf("rewritten rules = %d:\n%s", len(rw.Program.Rules), rw.Program.Render(fx.st))
	}
	// The magic rule: m_sg_bf(X1) :- m_sg_bf(X), up(X, X1).
	var magicRule *ast.Rule
	for i, r := range rw.Program.Rules {
		if r.Head.Pred == "m_sg_bf" && len(r.Body) > 0 {
			magicRule = &rw.Program.Rules[i]
		}
	}
	if magicRule == nil {
		t.Fatal("no magic rule generated")
	}
	if len(magicRule.Body) != 2 || magicRule.Body[1].Pred != "up" {
		t.Fatalf("magic rule = %s", magicRule.Render(fx.st))
	}
	// Seed: m_sg_bf(john).
	seedFound := false
	for _, r := range rw.Program.Rules {
		if r.Head.Pred == "m_sg_bf" && len(r.Body) == 0 {
			seedFound = true
			if !r.Head.IsGround() {
				t.Fatal("seed not ground")
			}
		}
	}
	if !seedFound {
		t.Fatal("no seed rule")
	}
}

func TestMagicMatchesSeminaiveSG(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := symtab.NewTable()
		res := parser.MustParse(workload.SGProgram, st)
		store := edb.NewStore(st)
		n := 8
		sym := func(i int) symtab.Sym { return st.Intern(fmt.Sprintf("n%d", i)) }
		for k := 0; k < 16; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				store.Insert("up", sym(i), sym(j))
			case 1:
				store.Insert("down", sym(i), sym(j))
			default:
				store.Insert("flat", sym(i), sym(j))
			}
		}
		q := parser.MustParseQuery("sg(n0, Y)", st)
		got, _, err := Evaluate(res.Program, q, store)
		if err != nil {
			return false
		}
		idb, _, err := bottomup.Seminaive(res.Program, store)
		if err != nil {
			return false
		}
		want := bottomup.Answer(idb, q)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The whole point of magic sets: with a bound query, only facts reachable
// from the query constant are consulted — adding irrelevant facts must
// not grow the relevant set (unlike plain seminaive, which computes the
// full sg relation).
func TestMagicRestrictsRelevantFacts(t *testing.T) {
	fx := load(t, workload.SGProgram+`
up(a, b). flat(b, b). down(b, c).
`)
	q := parser.MustParseQuery("sg(a, Y)", fx.st)
	run := func() int64 {
		_, stats, err := Evaluate(fx.prog, q, fx.store)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Retrieved
	}
	before := run()
	for i := 0; i < 40; i++ {
		fx.store.Insert("up", fx.st.Intern(fmt.Sprintf("x%d", i)), fx.st.Intern(fmt.Sprintf("x%d", i+1)))
		fx.store.Insert("flat", fx.st.Intern(fmt.Sprintf("x%d", i)), fx.st.Intern(fmt.Sprintf("x%d", i)))
	}
	after := run()
	// The magic program still scans the irrelevant up/flat tuples once
	// per probe of the magic join keyed on bound values — with indexes
	// the retrieved count stays flat.
	if after != before {
		t.Fatalf("facts consulted grew with irrelevant data: %d -> %d", before, after)
	}

	// Plain seminaive, by contrast, must consult the irrelevant facts.
	_, stats, err := bottomup.Seminaive(fx.prog, fx.store)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retrieved <= after {
		t.Fatalf("seminaive consulted %d <= magic %d; expected more", stats.Retrieved, after)
	}
}

// All-free queries degrade to plain seminaive (no magic predicates).
func TestAllFreeQuery(t *testing.T) {
	fx := load(t, workload.SGProgram+`
up(a, b). flat(b, b). down(b, c).
`)
	q := parser.MustParseQuery("sg(X, Y)", fx.st)
	got, _, err := Evaluate(fx.prog, q, fx.store)
	if err != nil {
		t.Fatal(err)
	}
	idb, _, err := bottomup.Seminaive(fx.prog, fx.store)
	if err != nil {
		t.Fatal(err)
	}
	want := bottomup.Answer(idb, q)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMagicFlightProgram(t *testing.T) {
	fx := load(t, `
cnx(S, DT, D, AT) :- flight(S, DT, D, AT).
cnx(S, DT, D, AT) :- flight(S, DT, D1, AT1), AT1 < DT1, is_deptime(DT1), cnx(D1, DT1, D, AT).

flight(hel, 900, sto, 1000).
flight(sto, 1100, par, 1300).
flight(par, 1400, nyc, 2000).
is_deptime(900). is_deptime(1100). is_deptime(1400).
`)
	q := parser.MustParseQuery("cnx(hel, 900, D, AT)", fx.st)
	got, _, err := Evaluate(fx.prog, q, fx.store)
	if err != nil {
		t.Fatal(err)
	}
	idb, _, err := bottomup.Seminaive(fx.prog, fx.store)
	if err != nil {
		t.Fatal(err)
	}
	want := bottomup.Answer(idb, q)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if len(got) != 3 {
		t.Fatalf("answers = %v", got)
	}
}

func TestMagicBBQuery(t *testing.T) {
	fx := load(t, workload.SGProgram+`
up(john, p1). up(ann, p1). flat(p1, p1).
down(p1, john). down(p1, ann).
`)
	q := parser.MustParseQuery("sg(john, ann)", fx.st)
	got, _, err := Evaluate(fx.prog, q, fx.store)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("sg(john, ann) = %v", got)
	}
}

func TestMagicPredNames(t *testing.T) {
	p := adorn.Pred{Name: "sg", Adorn: "bf"}
	if MagicPredName(p) != "m_sg_bf" {
		t.Fatalf("MagicPredName = %s", MagicPredName(p))
	}
}
