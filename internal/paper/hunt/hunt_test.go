package hunt

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"chainlog/internal/chaineval"
	"chainlog/internal/edb"
	"chainlog/internal/equations"
	"chainlog/internal/expr"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

func TestHuntTransitiveClosure(t *testing.T) {
	st := symtab.NewTable()
	store, src := workload.Chain(st, 10)
	g := Build(expr.MustParse("edge.edge*"), store)
	answers, visited := g.Query(src)
	if len(answers) != 10 {
		t.Fatalf("answers = %d", len(answers))
	}
	if visited == 0 || g.Stats.Arcs == 0 {
		t.Fatal("stats empty")
	}
}

func TestHuntMatchesChainEngine(t *testing.T) {
	f := func(seed int64) bool {
		st := symtab.NewTable()
		store, src := workload.RandomGraph(st, 12, 28, seed)
		e := expr.MustParse("edge.edge*")
		g := Build(e, store)
		got, _ := g.Query(src)

		res := parser.MustParse(`
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
`, st)
		sys, err := equations.Transform(res.Program)
		if err != nil {
			return false
		}
		eng := chaineval.New(sys, chaineval.StoreSource{Store: store}, chaineval.Options{})
		want, err := eng.Query("tc", src)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, want.Answers)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Ablation A1: the preconstruction pays for every tuple — including those
// unreachable from any query constant — while the demand-driven engine's
// facts consulted stay flat when irrelevant data is added.
func TestPreconstructionPaysForIrrelevantData(t *testing.T) {
	st := symtab.NewTable()
	store, src := workload.Chain(st, 20)
	e := expr.MustParse("edge.edge*")
	arcsBefore := Build(e, store).Stats.Arcs
	for i := 0; i < 200; i++ {
		store.Insert("edge", st.Intern(fmt.Sprintf("j%d", i)), st.Intern(fmt.Sprintf("j%d", i+1)))
	}
	huntAfter := Build(e, store)
	if huntAfter.Stats.Arcs <= arcsBefore+150 {
		t.Fatalf("preconstruction arcs did not grow with irrelevant data: %d -> %d",
			arcsBefore, huntAfter.Stats.Arcs)
	}
	// Answers still correct despite the junk.
	answers, _ := huntAfter.Query(src)
	if len(answers) != 20 {
		t.Fatalf("answers = %d", len(answers))
	}
}

func TestIdentityTransitionsUseActiveDomain(t *testing.T) {
	st := symtab.NewTable()
	store := edb.NewStore(st)
	a, b := st.Intern("a"), st.Intern("b")
	store.Insert("edge", a, b)
	// e* has id transitions; (a,a) and (b,b) must hold.
	g := Build(expr.MustParse("edge*"), store)
	ans, _ := g.Query(a)
	if len(ans) != 2 {
		t.Fatalf("edge*(a) = %v", ans)
	}
	ans, _ = g.Query(b)
	if len(ans) != 1 || ans[0] != b {
		t.Fatalf("edge*(b) = %v", ans)
	}
	if g.Stats.DomainSize != 2 {
		t.Fatalf("DomainSize = %d", g.Stats.DomainSize)
	}
}

func TestInverseLabels(t *testing.T) {
	st := symtab.NewTable()
	store := edb.NewStore(st)
	a, b := st.Intern("a"), st.Intern("b")
	store.Insert("edge", a, b)
	g := Build(expr.MustParse("edge~"), store)
	ans, _ := g.Query(b)
	if len(ans) != 1 || ans[0] != a {
		t.Fatalf("edge~(b) = %v", ans)
	}
}
