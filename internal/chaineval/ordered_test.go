package chaineval

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"chainlog/internal/ast"
	"chainlog/internal/edb"
	"chainlog/internal/equations"
	"chainlog/internal/naiveeval"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

// TestOrderedAnswers pins where sorted answers come from: every run
// reads them off Final's blocks in order, with no sort. Each case must
// give the oracle's answers, and give them in ascending order.
func TestOrderedAnswers(t *testing.T) {
	lowerShardThreshold(t, 3)
	const tc = "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n"
	compile := func(t *testing.T, prog string, st *symtab.Table) (*equations.System, *ast.Program) {
		t.Helper()
		p := parser.MustParse(prog, st).Program
		sys, err := equations.Transform(p)
		if err != nil {
			t.Fatal(err)
		}
		return sys, p
	}
	// check runs pred(a, Y) and holds its answers against the oracle's
	// over facts, which it computes after the run, so that a source that
	// interns as it answers has interned everything first.
	check := func(t *testing.T, prog string, st *symtab.Table, src Source, facts func() *naiveeval.Facts, pred string, a symtab.Sym, workers int) []symtab.Sym {
		t.Helper()
		sys, p := compile(t, prog, st)
		res, err := New(sys, src, Options{}).RunWorkers(pred, a, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.IsSorted(res.Answers) {
			t.Fatalf("answers out of order: %v", res.Answers)
		}
		if want := column(oracleRows(p, facts(), st, pred, ast.C(a), ast.V("Y")), 0); !slices.Equal(res.Answers, want) {
			t.Fatalf("answers %v, oracle %v", res.Answers, want)
		}
		return res.Answers
	}
	fromStore := func(store *edb.Store) func() *naiveeval.Facts {
		return func() *naiveeval.Facts { return storeFacts(store) }
	}
	// reachable builds the edge facts of succ reachable from a.
	reachable := func(succ func(string, symtab.Sym) []symtab.Sym, a symtab.Sym) func() *naiveeval.Facts {
		return func() *naiveeval.Facts {
			facts := naiveeval.NewFacts()
			for todo := []symtab.Sym{a}; len(todo) > 0; {
				u := todo[len(todo)-1]
				todo = todo[:len(todo)-1]
				for _, v := range succ("edge", u) {
					if facts.Assert("edge", []symtab.Sym{u, v}) {
						todo = append(todo, v)
					}
				}
			}
			return facts
		}
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
		if got := check(t, tc, st, StoreSource{Store: store}, fromStore(store), "tc", st.Intern("isolated"), 1); len(got) != 0 {
			t.Fatalf("answers %v, want none", got)
		}
	})

	t.Run("final page grown mid-run", func(t *testing.T) {
		// Like Section 4's virtual relations, the source interns the terms
		// it returns, so every answer lies past the symbol bound the run
		// started with.
		st := symtab.NewTable()
		a := st.Intern("n")
		succ := func(_ string, u symtab.Sym) []symtab.Sym {
			name := st.Name(u)
			if len(name) > 8 {
				return nil
			}
			return []symtab.Sym{st.Intern(name + "1"), st.Intern(name + "0")}
		}
		bound := st.Len()
		got := check(t, tc, st, FuncSource{Succ: succ}, reachable(succ, a), "tc", a, 1)
		if len(got) != 1<<9-2 {
			t.Fatalf("%d answers, want %d", len(got), 1<<9-2)
		}
		if int(got[0]) < bound {
			t.Fatalf("answer %d lies below the bound %d the run started with", got[0], bound)
		}
	})

	t.Run("parallel merge", func(t *testing.T) {
		st := symtab.NewTable()
		store := tree(st, 9)
		if got := check(t, tc, st, StoreSource{Store: store}, fromStore(store), "tc", st.Intern("t1"), 4); len(got) != 1<<10-2 {
			t.Fatalf("%d answers, want %d", len(got), 1<<10-2)
		}
		for seed := int64(1); seed <= 5; seed++ {
			st := symtab.NewTable()
			store, src := randomSGStore(st, seed)
			check(t, workload.SGProgram, st, StoreSource{Store: store}, fromStore(store), "sg", src, 4)
		}
	})

	t.Run("blocks far apart", func(t *testing.T) {
		// Terms 2^20 apart, reached in shuffled order: a run touches a
		// block per term, with empty blocks between them.
		const gap = 1 << 20
		perm := rand.New(rand.NewSource(1)).Perm(64)
		succ := func(_ string, u symtab.Sym) []symtab.Sym {
			switch {
			case u == 0:
				out := make([]symtab.Sym, len(perm))
				for i, k := range perm {
					out[i] = symtab.Sym((k + 1) * gap)
				}
				return out
			case u%gap == 0:
				return []symtab.Sym{u + gap/2 + u/gap}
			}
			return nil
		}
		got := check(t, tc, symtab.NewTable(), FuncSource{Succ: succ}, reachable(succ, 0), "tc", 0, 1)
		if len(got) != 128 {
			t.Fatalf("%d answers, want 128", len(got))
		}
	})
}
