package chainlog

import (
	"fmt"
	"testing"

	"chainlog/internal/symtab"
)

// TestRunSymsFuncZeroAlloc pins the prepared-plan warm path of the
// flat-memory refactor: steady-state RunSymsFunc on a directly evaluated
// binary-chain plan (regular equation, CSR adjacency, pooled visited
// pages) must perform zero heap allocations.
func TestRunSymsFuncZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	db := NewDB()
	if err := db.LoadProgram("tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		db.Assert("edge", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
	}
	p, err := db.Prepare("tc(?, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, ok := db.SymTab().Lookup("n0")
	if !ok {
		t.Fatal("n0 not interned")
	}
	// The yield callback is created once and reused, as a serving loop
	// would; a fresh closure per call would charge the caller one
	// allocation of its own.
	count := 0
	yield := func(row []symtab.Sym) { count++ }
	run := func() {
		count = 0
		if err := p.RunSymsFunc(yield, src); err != nil {
			t.Error(err)
		}
	}
	run() // warm: builds CSR adjacency, seeds the scratch pool
	if count != 64 {
		t.Fatalf("answers = %d, want 64", count)
	}
	if got := testing.AllocsPerRun(200, run); got != 0 {
		t.Fatalf("warm RunSymsFunc allocates %.1f allocs/op, want 0", got)
	}
}

// TestRunSymsFuncMatchesRunSyms checks the streamed rows against the
// materialized answer across plan routes: the chain plan (bound direct,
// and fb through the reversed system), the all-pairs query and the
// seminaive and qsqnet routes, which yield the symbol rows their
// run produced. No call may intern anything.
func TestRunSymsFuncMatchesRunSyms(t *testing.T) {
	db := NewDB()
	if err := db.LoadProgram("tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n"); err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"b", "d"}, {"d", "a"}} {
		db.Assert("edge", e[0], e[1])
	}
	for _, strategy := range []Strategy{Auto, Seminaive, QSQNet} {
		for _, query := range []string{"tc(?, Y)", "tc(X, ?)", "tc(X, Y)"} {
			p, err := db.Prepare(query, Options{Strategy: strategy})
			if err != nil {
				t.Fatal(err)
			}
			var args []string
			if p.NumParams() > 0 {
				args = []string{"a"}
			}
			ans, err := p.Run(args...)
			if err != nil {
				t.Fatal(err)
			}
			syms := make([]symtab.Sym, len(args))
			for i, a := range args {
				syms[i], _ = db.SymTab().Lookup(a)
			}
			var streamed [][]string
			before := db.SymTab().Len()
			err = p.RunSymsFunc(func(row []symtab.Sym) {
				out := make([]string, len(row))
				for i, s := range row {
					out[i] = db.Name(s)
				}
				streamed = append(streamed, out)
			}, syms...)
			if err != nil {
				t.Fatal(err)
			}
			if after := db.SymTab().Len(); after != before {
				t.Errorf("%s/%v: RunSymsFunc grew the symbol table from %d to %d", query, strategy, before, after)
			}
			if len(streamed) != len(ans.Rows) {
				t.Fatalf("%s/%v: streamed %d rows, Run returned %d", query, strategy, len(streamed), len(ans.Rows))
			}
			want := map[string]bool{}
			for _, r := range ans.Rows {
				want[fmt.Sprint(r)] = true
			}
			for _, r := range streamed {
				if !want[fmt.Sprint(r)] {
					t.Fatalf("%s/%v: streamed row %v not in Run answer %v", query, strategy, r, ans.Rows)
				}
			}
		}
	}
}

// TestWideAnswerAllocs gates what an answer costs beyond its traversal:
// rendering and finishing allocate a constant number of objects, not one
// per row. The one-column case is the benchmark's wide-answer query. The
// two-column case is an all-pairs query, whose engine call is gated on
// its own at engineBudget objects (583 when a batch numbered its nodes in
// maps and closed every component over its successors, 90 since it
// materializes only cyclic components and pools its scratch), and
// RunSyms' allocations on top of that call's.
func TestWideAnswerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const budget, engineBudget = 8, 200
	_, tree := wideAnswerDBs(t, 13)
	one, err := tree.Prepare("tc(?, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := tree.Intern("t1")
	if ans, err := one.RunSyms(src); err != nil || len(ans.Rows) != 8190 || len(ans.Rows[0]) != 1 {
		t.Fatalf("one column: %d rows, err %v", len(ans.Rows), err)
	}
	if got := testing.AllocsPerRun(50, func() { one.RunSyms(src) }); got > budget {
		t.Errorf("one column, 8190 rows: RunSyms allocates %.1f objects, want <= %d", got, budget)
	}

	pairs := NewDB()
	if err := pairs.LoadProgram("p(X, Y) :- e(X, Y).\n"); err != nil {
		t.Fatal(err)
	}
	d := &Delta{}
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			d.Assert("e", fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", j))
		}
	}
	pairs.Apply(d)
	two, err := pairs.Prepare("p(X, Y)", Options{Strategy: Chain})
	if err != nil {
		t.Fatal(err)
	}
	if ans, err := two.RunSyms(); err != nil || len(ans.Rows) != 4096 || len(ans.Rows[0]) != 2 {
		t.Fatalf("two columns: %d rows, err %v", len(ans.Rows), err)
	}
	pl := two.cur.Load().plan.(*chainPlan)
	domain := pairs.ActiveDomain()
	engine := testing.AllocsPerRun(20, func() { pl.eng.QueryBatchCtx(nil, pl.pred, domain, 0, 1) })
	if engine > engineBudget {
		t.Errorf("two columns, 4096 rows: the engine call allocates %.1f objects, want <= %d", engine, engineBudget)
	}
	if got := testing.AllocsPerRun(20, func() { two.RunSyms() }); got > engine+budget {
		t.Errorf("two columns, 4096 rows: RunSyms allocates %.1f objects, %.1f of them in the engine; want <= %d more", got, engine, budget)
	}
}
