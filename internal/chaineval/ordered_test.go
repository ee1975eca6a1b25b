package chaineval

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"chainlog/internal/edb"
	"chainlog/internal/equations"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

// TestOrderedAnswersMatchSparse pins where sorted answers come from. A
// run that ends on dense pages reads its answers off Final's page in
// word order; one that ends sparse (forced, or migrated past
// denseWordBudget) sorts them. Every way a dense run can end must give
// the forced-sparse run's answers byte for byte, and end the way the
// case says it does.
func TestOrderedAnswersMatchSparse(t *testing.T) {
	lowerShardThreshold(t, 3)
	const tc = "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n"
	system := func(t *testing.T, prog string, st *symtab.Table) *equations.System {
		t.Helper()
		sys, err := equations.Transform(parser.MustParse(prog, st).Program)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	// run evaluates on a scratch of its own and reports whether the visited
	// set ended sparse, and Final's page length in words when it did not.
	run := func(t *testing.T, eng *Engine, pred string, a symtab.Sym) (answers []symtab.Sym, sparse bool, finalWords int) {
		t.Helper()
		sc := new(runScratch)
		if err := eng.runInto(nil, pred, a, sc, eng.traversalWorkers()); err != nil {
			t.Fatal(err)
		}
		if sc.G.m == nil && len(sc.G.pages) > sc.m.Final {
			finalWords = len(sc.G.pages[sc.m.Final])
		}
		return sc.answers, sc.G.m != nil, finalWords
	}
	compare := func(t *testing.T, sys *equations.System, src Source, pred string, a symtab.Sym, opts Options, wantSparse bool) []symtab.Sym {
		t.Helper()
		got, sparse, _ := run(t, New(sys, src, opts), pred, a)
		want, _, _ := run(t, New(sys, src, Options{sparseVisited: true}), pred, a)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("answers %v, sparse path %v", got, want)
		}
		if sparse != wantSparse {
			t.Fatalf("run ended sparse = %v, want %v", sparse, wantSparse)
		}
		return got
	}
	// tree is the binary tree t1 -> t2, t3, ... of depth levels below t1,
	// inserted in a shuffled order so that symbol order is not visit order.
	tree := func(st *symtab.Table, depth int) *edb.Store {
		store := edb.NewStore(st)
		n := 1<<(depth+1) - 1
		for _, i := range rand.New(rand.NewSource(1)).Perm(n - 1) {
			store.Insert("edge", st.Intern(fmt.Sprintf("t%d", (i+2)/2)), st.Intern(fmt.Sprintf("t%d", i+2)))
		}
		return store
	}

	t.Run("no answers", func(t *testing.T) {
		st := symtab.NewTable()
		store, _ := workload.Chain(st, 8)
		if got := compare(t, system(t, tc, st), StoreSource{Store: store}, "tc", st.Intern("isolated"), Options{}, false); len(got) != 0 {
			t.Fatalf("answers %v, want none", got)
		}
	})

	t.Run("final page grown mid-run", func(t *testing.T) {
		// Like Section 4's virtual relations, the source interns the terms
		// it returns, so every answer lies past the bound the run sized its
		// pages by and Final's page grows.
		st := symtab.NewTable()
		src := FuncSource{
			Succ: func(_ string, u symtab.Sym) []symtab.Sym {
				name := st.Name(u)
				if len(name) > 8 {
					return nil
				}
				return []symtab.Sym{st.Intern(name + "1"), st.Intern(name + "0")}
			},
			Bound: st.Len,
		}
		sys := system(t, tc, st)
		a := st.Intern("n")
		got, sparse, words := run(t, New(sys, src, Options{}), "tc", a)
		if sparse || words <= 1 {
			t.Fatalf("run ended sparse = %v with a %d-word final page, want a dense page grown past 1 word", sparse, words)
		}
		if len(got) != 1<<9-2 {
			t.Fatalf("%d answers, want %d", len(got), 1<<9-2)
		}
		compare(t, sys, src, "tc", a, Options{}, false)
	})

	t.Run("parallel merge", func(t *testing.T) {
		st := symtab.NewTable()
		store := tree(st, 9)
		if got := compare(t, system(t, tc, st), StoreSource{Store: store}, "tc", st.Intern("t1"), Options{Parallelism: 4}, false); len(got) != 1<<10-2 {
			t.Fatalf("%d answers, want %d", len(got), 1<<10-2)
		}
		for seed := int64(1); seed <= 5; seed++ {
			st := symtab.NewTable()
			store, src := workload.RandomGraph(st, 24, 70, seed)
			compare(t, system(t, workload.SGProgram, st), StoreSource{Store: store}, "sg", src, Options{Parallelism: 4}, false)
		}
	})

	t.Run("forced sparse, parallel", func(t *testing.T) {
		st := symtab.NewTable()
		store := tree(st, 9)
		compare(t, system(t, tc, st), StoreSource{Store: store}, "tc", st.Intern("t1"), Options{Parallelism: 4, sparseVisited: true}, true)
	})

	t.Run("migrated past the dense budget", func(t *testing.T) {
		st := symtab.NewTable()
		w := workload.SampleB(st, 64)
		sys := system(t, workload.SGProgram, st)
		sc := new(runScratch)
		if err := New(sys, StoreSource{Store: w.Store}, Options{}).runInto(nil, "sg", w.Query, sc, 1); err != nil {
			t.Fatal(err)
		}
		old := denseWordBudget
		denseWordBudget = sc.G.alloc / 2
		t.Cleanup(func() { denseWordBudget = old })
		got := compare(t, sys, StoreSource{Store: w.Store}, "sg", w.Query, Options{}, true)
		if !slices.IsSorted(got) || len(got) != 32 {
			t.Fatalf("answers %v, want 32 in order", got)
		}
	})
}
