package chaineval

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"chainlog/internal/ast"
	"chainlog/internal/edb"
	"chainlog/internal/equations"
	"chainlog/internal/naiveeval"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

// storeFacts copies every relation of store into an oracle fact set.
func storeFacts(store *edb.Store) *naiveeval.Facts {
	facts := naiveeval.NewFacts()
	for _, pred := range store.Relations() {
		store.Relation(pred).Each(func(tuple []symtab.Sym) { facts.Assert(pred, tuple) })
	}
	return facts
}

// oracleRows answers pred(x, y) with the naiveeval oracle: its sorted
// rows over the query's variables.
func oracleRows(prog *ast.Program, facts *naiveeval.Facts, st *symtab.Table, pred string, x, y ast.Term) [][]symtab.Sym {
	return naiveeval.Answer(prog, facts, st, ast.Query{Literal: ast.Atom(pred, x, y)})
}

// column returns cell i of every row.
func column(rows [][]symtab.Sym, i int) []symtab.Sym {
	out := make([]symtab.Sym, len(rows))
	for k, r := range rows {
		out[k] = r[i]
	}
	return out
}

// randomSGStore is RandomGraph's graph as edge, plus up, flat and down
// relations drawn from three more of its graphs over the same nodes, so
// that sg has data to answer from.
func randomSGStore(st *symtab.Table, seed int64) (*edb.Store, symtab.Sym) {
	store, src := workload.RandomGraph(st, 14, 34, seed)
	for i, pred := range []string{"up", "flat", "down"} {
		g, _ := workload.RandomGraph(st, 14, 16, seed+int64(i)+1)
		g.Relation("edge").Each(func(e []symtab.Sym) { store.Insert(pred, e[0], e[1]) })
	}
	return store, src
}

// TestVisitedMatchesOracle checks the engine against the naiveeval
// oracle, which shares none of its machinery, on random graphs: the
// recursive (expanding) same-generation program and the regular
// transitive closure, each forward, inverse (p(X, b) as p(b, Y) on an
// engine over sys.Reverse()) and all-pairs (queryAll's SCC route).
func TestVisitedMatchesOracle(t *testing.T) {
	progs := []struct {
		name string
		text string
		pred string
	}{
		{"sg", workload.SGProgram, "sg"},
		{"tc", "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n", "tc"},
	}
	for _, pc := range progs {
		t.Run(pc.name, func(t *testing.T) {
			f := func(seed int64) bool {
				st := symtab.NewTable()
				store, src := randomSGStore(st, seed)
				prog := parser.MustParse(pc.text, st).Program
				sys, err := equations.Transform(prog)
				if err != nil {
					t.Fatal(err)
				}
				facts := storeFacts(store)
				fwd := New(sys, StoreSource{Store: store}, Options{})

				res, err := fwd.Query(pc.pred, src)
				if err != nil {
					t.Fatal(err)
				}
				if want := column(oracleRows(prog, facts, st, pc.pred, ast.C(src), ast.V("Y")), 0); !slices.Equal(res.Answers, want) {
					t.Logf("seed %d: forward %v, oracle %v", seed, res.Answers, want)
					return false
				}

				inv, err := New(sys.Reverse(), StoreSource{Store: store}, Options{}).Query(pc.pred, src)
				if err != nil {
					t.Fatal(err)
				}
				if want := column(oracleRows(prog, facts, st, pc.pred, ast.V("X"), ast.C(src)), 0); !slices.Equal(inv.Answers, want) {
					t.Logf("seed %d: inverse %v, oracle %v", seed, inv.Answers, want)
					return false
				}

				domain := store.Relation("edge").Domain(0)
				all, _, err := queryAll(fwd, nil, pc.pred, domain, 0)
				if err != nil {
					t.Fatal(err)
				}
				var want [][2]symtab.Sym
				for _, r := range oracleRows(prog, facts, st, pc.pred, ast.V("X"), ast.V("Y")) {
					if slices.Contains(domain, r[0]) {
						want = append(want, [2]symtab.Sym{r[0], r[1]})
					}
				}
				if !slices.Equal(all, want) {
					t.Logf("seed %d: all-pairs %v, oracle %v", seed, all, want)
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

// TestVisitedMemoryFollowsVisits pins that a visited set holds blocks
// for the terms it visited, not pages sized by the largest term, and
// that a reset set hooks only what its next run touches, drawing on the
// blocks it already has.
func TestVisitedMemoryFollowsVisits(t *testing.T) {
	var v visitedSet
	blocks := func() (hooked, free int) {
		for _, s := range v.spines {
			for _, b := range s {
				if b != nil {
					hooked++
				}
			}
		}
		return hooked, len(v.blocks) - len(v.hooked)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if !v.visit(0, 0) || !v.visit(0, 1<<26) || v.visit(0, 1<<26) {
		t.Fatal("visit of a new node reported old, or of an old node new")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("visiting (0, 0) and (0, 1<<26) allocated %d bytes, want under 1 MiB", got)
	}
	if !v.has(0, 0) || !v.has(0, 1<<26) || v.has(0, 1) || v.has(1, 0) {
		t.Fatal("has disagrees with what was visited")
	}
	if hooked, free := blocks(); hooked != 2 || free != 0 {
		t.Fatalf("%d blocks hooked, %d free; want 2 and 0", hooked, free)
	}

	v.reset()
	if hooked, free := blocks(); hooked != 0 || free != 2 || v.has(0, 0) || v.count != 0 {
		t.Fatalf("after reset %d blocks hooked, %d free, count %d; want 0, 2, 0", hooked, free, v.count)
	}
	for u := symtab.Sym(1 << 20); u < 1<<20+100; u++ {
		v.visit(3, u)
	}
	if hooked, free := blocks(); hooked != 1 || free != 1 {
		t.Fatalf("a run touching one block left %d hooked and %d free; want 1 and 1", hooked, free)
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
