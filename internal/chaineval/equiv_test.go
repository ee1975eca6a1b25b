package chaineval

import (
	"reflect"
	"testing"
	"testing/quick"

	"chainlog/internal/equations"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

// TestDenseSparseEquivalence is the equivalence property test of the
// flat-memory refactor: the dense bitset-page visited sets and the
// sparse map fallback (Options.sparseVisited) must produce byte-identical
// answers on random graphs, for the recursive (expanding) same-generation
// program, the regular transitive-closure path, inverse queries and the
// all-pairs SCC route.
func TestDenseSparseEquivalence(t *testing.T) {
	progs := []struct {
		name string
		text string
		pred string
	}{
		{"sg", workload.SGProgram, "sg"},
		{"tc", "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n", "tc"},
	}
	for _, pc := range progs {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			f := func(seed int64) bool {
				st := symtab.NewTable()
				store, src := workload.RandomGraph(st, 14, 34, seed)
				res := parser.MustParse(pc.text, st)
				sys, err := equations.Transform(res.Program)
				if err != nil {
					return false
				}
				if _, ok := sys.EquationFor(pc.pred); !ok {
					return true // program irrelevant for this store shape
				}
				dense := New(sys, StoreSource{Store: store}, Options{})
				sparse := New(sys, StoreSource{Store: store}, Options{sparseVisited: true})

				dres, derr := dense.Query(pc.pred, src)
				sres, serr := sparse.Query(pc.pred, src)
				if (derr == nil) != (serr == nil) {
					return false
				}
				if derr == nil && !reflect.DeepEqual(dres.Answers, sres.Answers) {
					t.Logf("seed %d: dense %v sparse %v", seed, dres.Answers, sres.Answers)
					return false
				}

				dinv, derr := New(sys.Reverse(), StoreSource{Store: store}, Options{}).Query(pc.pred, src)
				sinv, serr := New(sys.Reverse(), StoreSource{Store: store}, Options{sparseVisited: true}).Query(pc.pred, src)
				if (derr == nil) != (serr == nil) {
					return false
				}
				if derr == nil && !reflect.DeepEqual(dinv.Answers, sinv.Answers) {
					return false
				}

				domain := store.Relation("edge").Domain(0)
				dall, _, derr := dense.QueryAll(pc.pred, domain)
				sall, _, serr := sparse.QueryAll(pc.pred, domain)
				if (derr == nil) != (serr == nil) {
					return false
				}
				if derr == nil && !reflect.DeepEqual(dall, sall) {
					t.Logf("seed %d: all-pairs dense %v sparse %v", seed, dall, sall)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStreamMatchesQuery pins QueryStream to Query: the streamed answer
// sequence is exactly the materialized sorted answer set.
func TestStreamMatchesQuery(t *testing.T) {
	f := func(seed int64) bool {
		st := symtab.NewTable()
		store, src := workload.RandomGraph(st, 12, 30, seed)
		res := parser.MustParse(workload.SGProgram, st)
		sys, err := equations.Transform(res.Program)
		if err != nil {
			return false
		}
		eng := New(sys, StoreSource{Store: store}, Options{})
		want, err := eng.Query("sg", src)
		if err != nil {
			return false
		}
		got := []symtab.Sym{}
		if err := eng.QueryStream("sg", src, func(v symtab.Sym) { got = append(got, v) }); err != nil {
			return false
		}
		return reflect.DeepEqual(got, want.Answers) || (len(got) == 0 && len(want.Answers) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestVisitedMigrateToSparse pins the dense→sparse budget migration:
// every bit set in the dense pages must survive into the map, and
// visit/has semantics must be unchanged afterwards.
func TestVisitedMigrateToSparse(t *testing.T) {
	var v visitedSet
	v.reset(1024, false)
	seen := map[node]bool{}
	for i := 0; i < 500; i++ {
		q, u := i%7, symtab.Sym((i*37)%1000)
		want := !seen[node{q, u}]
		seen[node{q, u}] = true
		if got := v.visit(q, u); got != want {
			t.Fatalf("visit(%d, %d) = %v, want %v", q, u, got, want)
		}
	}
	count := v.count
	v.migrateToSparse()
	if v.count != count {
		t.Fatalf("count changed across migration: %d -> %d", count, v.count)
	}
	for n := range seen {
		if !v.has(n.q, n.u) {
			t.Fatalf("node (%d, %d) lost in migration", n.q, n.u)
		}
		if v.visit(n.q, n.u) {
			t.Fatalf("node (%d, %d) reported new after migration", n.q, n.u)
		}
	}
	if !v.visit(50, 5) {
		t.Fatal("fresh node not new after migration")
	}
}

// TestQueryStreamZeroAlloc pins the pooled warm path: steady-state
// QueryStream over a regular (non-expanding) equation must not allocate.
func TestQueryStreamZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	st := symtab.NewTable()
	store, src := workload.Chain(st, 64)
	res := parser.MustParse("tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n", st)
	sys, err := equations.Transform(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(sys, StoreSource{Store: store}, Options{})
	eng.Precompile("tc")
	count := 0
	run := func() {
		count = 0
		if err := eng.QueryStream("tc", src, func(symtab.Sym) { count++ }); err != nil {
			t.Error(err)
		}
	}
	run() // warm the scratch pool and the CSR adjacency
	if count != 64 {
		t.Fatalf("answers = %d, want 64", count)
	}
	if got := testing.AllocsPerRun(200, run); got != 0 {
		t.Fatalf("warm QueryStream allocates %.1f allocs/op, want 0", got)
	}
}
