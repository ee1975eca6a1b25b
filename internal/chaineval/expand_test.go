package chaineval

import (
	"fmt"
	"reflect"
	"testing"

	"chainlog/internal/edb"
	"chainlog/internal/equations"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
)

// An iteration that leaves continuation points at two states expands
// them in state order, so the copies are numbered — and EM(p,i) renders
// — the same on every run, and so does the run's Result. The program has
// two recursive rules, hence two sg-like occurrences reached side by side
// (the oracle's mutual template will not do: Lemma 1 rewrites it into a
// regular equation that never expands).
func TestExpansionDeterministic(t *testing.T) {
	st := symtab.NewTable()
	sys, err := equations.Transform(parser.MustParse(`
p(X, Y) :- e(X, Y).
p(X, Z) :- a(X, Y), p(Y, W), b(W, Z).
p(X, Z) :- c(X, Y), p(Y, W), d(W, Z).
`, st).Program)
	if err != nil {
		t.Fatal(err)
	}
	// Two ladders side by side, crossing over at every rung, so every
	// iteration holds continuation points at a copy of each occurrence.
	store := edb.NewStore(st)
	n := func(i int) symtab.Sym { return st.Intern(fmt.Sprintf("n%d", i)) }
	for i := 0; i < 6; i++ {
		store.Insert("a", n(i), n(i+1))
		store.Insert("c", n(i), n(i+1))
		store.Insert("b", n(i+1), n(i))
		store.Insert("d", n(i+1), n(i))
		store.Insert("e", n(i), n(i))
	}
	run := func() (*Result, string) {
		res, em, _, err := New(sys, StoreSource{Store: store}, Options{}).RunEM("p", n(0))
		if err != nil {
			t.Fatal(err)
		}
		return res, em.String()
	}
	first, firstEM := run()
	if first.Expansions < 10 {
		t.Fatalf("the run expands %d times, too little to tell:\n%s", first.Expansions, firstEM)
	}
	for i := 0; i < 8; i++ {
		res, em := run()
		if em != firstEM {
			t.Fatalf("EM(p,i) differs from run to run:\n%s\nthen\n%s", firstEM, em)
		}
		if !reflect.DeepEqual(res, first) {
			t.Fatalf("the Result differs from run to run: %+v, then %+v", first, res)
		}
	}
}
