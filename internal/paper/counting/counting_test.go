package counting

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"chainlog/internal/chaineval"
	"chainlog/internal/edb"
	"chainlog/internal/equations"
	"chainlog/internal/naiveeval"
	"chainlog/internal/paper/hn"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

func sgShape(t *testing.T, st *symtab.Table) equations.LinearShape {
	t.Helper()
	res := parser.MustParse(workload.SGProgram, st)
	sys, err := equations.Transform(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	shape, ok := sys.LinearDecompose("sg")
	if !ok {
		t.Fatal("sg does not decompose")
	}
	return shape
}

func TestCountingMatchesChainOnSamples(t *testing.T) {
	for _, gen := range []func(*symtab.Table, int) *workload.SG{
		workload.SampleA, workload.SampleB, workload.SampleC,
	} {
		st := symtab.NewTable()
		w := gen(st, 20)
		shape := sgShape(t, st)
		src := chaineval.StoreSource{Store: w.Store}
		got, stats := Evaluate(shape, src, w.Query, 0)

		res := parser.MustParse(workload.SGProgram, st)
		sys, _ := equations.Transform(res.Program)
		eng := chaineval.New(sys, src, chaineval.Options{})
		want, err := eng.Query("sg", w.Query)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want.Answers) {
			t.Fatalf("counting disagrees with chain engine: %v vs %v", got, want.Answers)
		}
		if stats.Levels == 0 {
			t.Fatal("no levels recorded")
		}
	}
}

func TestCountingCyclicBound(t *testing.T) {
	st := symtab.NewTable()
	w := workload.Cyclic(st, 3, 4)
	shape := sgShape(t, st)
	src := chaineval.StoreSource{Store: w.Store}
	got, stats := Evaluate(shape, src, w.Query, 0)
	if !stats.BoundStopped {
		t.Fatal("cyclic run should stop via the bound")
	}
	if len(got) != 4 {
		t.Fatalf("answers = %d, want 4", len(got))
	}
}

func TestReverseCountingAgrees(t *testing.T) {
	f := func(seed int64) bool {
		st := symtab.NewTable()
		w := workload.RandomTree(st, 15, 0.4, seed)
		shape := sgShape(t, st)
		src := chaineval.StoreSource{Store: w.Store}
		fwd, _ := Evaluate(shape, src, w.Query, 0)
		rev, _ := EvaluateReverse(shape, src, w.Query, 0)
		return reflect.DeepEqual(fwd, rev)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The paper: "the time bounds for our method are identical to those of
// the counting method" — counting's work on sample (b) is quadratic, on
// samples (a) and (c) linear.
func TestCountingGrowthShapes(t *testing.T) {
	work := func(gen func(*symtab.Table, int) *workload.SG, n int) int {
		st := symtab.NewTable()
		w := gen(st, n)
		shape := sgShape(t, st)
		_, stats := Evaluate(shape, chaineval.StoreSource{Store: w.Store}, w.Query, 0)
		return stats.UpSize + stats.FlatSize + stats.DownSize
	}
	for _, tc := range []struct {
		name     string
		gen      func(*symtab.Table, int) *workload.SG
		min, max float64
	}{
		{"sampleA", workload.SampleA, 1.5, 2.6},
		{"sampleB", workload.SampleB, 3.0, 4.8},
		{"sampleC", workload.SampleC, 1.5, 2.6},
	} {
		w1 := work(tc.gen, 64)
		w2 := work(tc.gen, 128)
		ratio := float64(w2) / float64(w1)
		if ratio < tc.min || ratio > tc.max {
			t.Errorf("%s: work ratio = %.2f, want [%.1f, %.1f]", tc.name, ratio, tc.min, tc.max)
		}
	}
}

// TestCountingDifferentialOracle drives counting and reverse counting
// through random mutation schedules, checking every post-mutation
// evaluation against the textbook semi-naive reference — the same
// oracle the engine's differential fuzz uses.
func TestCountingDifferentialOracle(t *testing.T) {
	const nodes = 10
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := symtab.NewTable()
		res := parser.MustParse(workload.SGProgram, st)
		sys, err := equations.Transform(res.Program)
		if err != nil {
			t.Fatal(err)
		}
		shape, ok := sys.LinearDecompose("sg")
		if !ok {
			t.Fatal("sg does not decompose")
		}
		store := edb.NewStore(st)
		facts := naiveeval.NewFacts()
		a := st.Intern("n0")
		sym := func(i int) symtab.Sym { return st.Intern(fmt.Sprintf("n%d", i)) }
		preds := []string{"up", "flat", "down"}

		check := func(step int) {
			t.Helper()
			src := chaineval.StoreSource{Store: store}
			got, _ := Evaluate(shape, src, a, 0)
			q := parser.MustParseQuery("sg(n0, Y)", st)
			var want []symtab.Sym
			for _, row := range naiveeval.Answer(res.Program, facts, st, q) {
				want = append(want, row[0])
			}
			sortSyms(want)
			norm := func(s []symtab.Sym) []symtab.Sym {
				if len(s) == 0 {
					return nil
				}
				return s
			}
			if !reflect.DeepEqual(norm(got), norm(want)) {
				t.Fatalf("seed %d step %d: counting %v, oracle %v", seed, step, got, want)
			}
			rev, _ := EvaluateReverse(shape, src, a, 0)
			if !reflect.DeepEqual(norm(rev), norm(want)) {
				t.Fatalf("seed %d step %d: reverse counting %v, oracle %v", seed, step, rev, want)
			}
		}

		// Seed a few facts, then mutate and re-check at every step.
		for i := 0; i < 8; i++ {
			p := preds[rng.Intn(len(preds))]
			u, v := sym(rng.Intn(nodes)), sym(rng.Intn(nodes))
			store.Insert(p, u, v)
			facts.Assert(p, []symtab.Sym{u, v})
		}
		check(0)
		for step := 1; step <= 20; step++ {
			p := preds[rng.Intn(len(preds))]
			u, v := sym(rng.Intn(nodes)), sym(rng.Intn(nodes))
			if rng.Intn(3) == 0 {
				store.Remove(p, u, v)
				facts.Retract(p, []symtab.Sym{u, v})
			} else {
				store.Insert(p, u, v)
				facts.Assert(p, []symtab.Sym{u, v})
			}
			check(step)
		}
	}
}

// Every probe lands in the run's own tally, whichever path makes it: the
// resolved-relation path over StoreSource and the by-name path over a
// FuncSource tally the same work and find the same answers, for
// Henschen–Naqvi and both counting variants.
func TestCountingStatsWired(t *testing.T) {
	st := symtab.NewTable()
	w := workload.SampleA(st, 16)
	shape := sgShape(t, st)
	byName := chaineval.FuncSource{
		Succ: func(p string, u symtab.Sym) []symtab.Sym { return w.Store.Relation(p).Successors(u) },
		Pred: func(p string, v symtab.Sym) []symtab.Sym { return w.Store.Relation(p).Predecessors(v) },
	}
	type method func(chaineval.Source) ([]symtab.Sym, edb.Counters)
	for name, run := range map[string]method{
		"henschen-naqvi": func(src chaineval.Source) ([]symtab.Sym, edb.Counters) {
			got, stats := hn.Evaluate(shape, src, w.Query, 0)
			return got, stats.Counters
		},
		"counting": func(src chaineval.Source) ([]symtab.Sym, edb.Counters) {
			got, stats := Evaluate(shape, src, w.Query, 0)
			return got, stats.Counters
		},
		"rev-counting": func(src chaineval.Source) ([]symtab.Sym, edb.Counters) {
			got, stats := EvaluateReverse(shape, src, w.Query, 0)
			return got, stats.Counters
		},
	} {
		resolved, work := run(chaineval.StoreSource{Store: w.Store})
		named, namedWork := run(byName)
		if work.Lookups == 0 || work.Retrieved == 0 || work != namedWork {
			t.Errorf("%s: resolved probes tallied %+v, by-name probes %+v", name, work, namedWork)
		}
		if len(resolved) == 0 || !reflect.DeepEqual(resolved, named) {
			t.Errorf("%s: answers %v over the store, %v by name", name, resolved, named)
		}
	}
}

func TestEmptyQueryConstant(t *testing.T) {
	st := symtab.NewTable()
	w := workload.SampleA(st, 5)
	shape := sgShape(t, st)
	got, _ := Evaluate(shape, chaineval.StoreSource{Store: w.Store}, st.Intern("nosuch"), 0)
	if len(got) != 0 {
		t.Fatalf("answers for unknown constant: %v", got)
	}
}
