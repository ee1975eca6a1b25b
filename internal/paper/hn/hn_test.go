package hn

import (
	"reflect"
	"testing"
	"testing/quick"

	"chainlog/internal/chaineval"
	"chainlog/internal/equations"
	"chainlog/internal/paper/counting"
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

func TestHNMatchesCountingOnRandomTrees(t *testing.T) {
	f := func(seed int64) bool {
		st := symtab.NewTable()
		w := workload.RandomTree(st, 20, 0.4, seed)
		shape := sgShape(t, st)
		src := chaineval.StoreSource{Store: w.Store}
		a, _ := Evaluate(shape, src, w.Query, 0)
		b, _ := counting.Evaluate(shape, src, w.Query, 0)
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHNCyclicBound(t *testing.T) {
	st := symtab.NewTable()
	w := workload.Cyclic(st, 3, 4)
	shape := sgShape(t, st)
	got, stats := Evaluate(shape, chaineval.StoreSource{Store: w.Store}, w.Query, 0)
	if !stats.BoundStopped {
		t.Fatal("cyclic run should stop via the bound")
	}
	if len(got) != 4 {
		t.Fatalf("answers = %d, want 4", len(got))
	}
}

// Ablation A2: on sample (c) Henschen–Naqvi re-walks the aligned down
// chain every level (quadratic terms touched), while the graph-traversal
// engine shares the spine (linear nodes). The asymmetry must show in the
// growth ratio.
func TestHNQuadraticOnSampleC(t *testing.T) {
	hnWork := func(n int) int {
		st := symtab.NewTable()
		w := workload.SampleC(st, n)
		shape := sgShape(t, st)
		_, stats := Evaluate(shape, chaineval.StoreSource{Store: w.Store}, w.Query, 0)
		return stats.TermsTouched
	}
	chainWork := func(n int) int {
		st := symtab.NewTable()
		w := workload.SampleC(st, n)
		res := parser.MustParse(workload.SGProgram, st)
		sys, _ := equations.Transform(res.Program)
		eng := chaineval.New(sys, chaineval.StoreSource{Store: w.Store}, chaineval.Options{})
		r, err := eng.Query("sg", w.Query)
		if err != nil {
			t.Fatal(err)
		}
		return r.Nodes
	}
	h1, h2 := hnWork(64), hnWork(128)
	c1, c2 := chainWork(64), chainWork(128)
	hRatio := float64(h2) / float64(h1)
	cRatio := float64(c2) / float64(c1)
	if hRatio < 3.0 {
		t.Errorf("HN growth ratio %.2f on sample (c): expected ~4 (quadratic)", hRatio)
	}
	if cRatio > 2.6 {
		t.Errorf("chain growth ratio %.2f on sample (c): expected ~2 (linear)", cRatio)
	}
}

func TestHNAcyclicIterations(t *testing.T) {
	st := symtab.NewTable()
	w := workload.SampleB(st, 10)
	shape := sgShape(t, st)
	_, stats := Evaluate(shape, chaineval.StoreSource{Store: w.Store}, w.Query, 0)
	if stats.Iterations != 10 {
		t.Fatalf("iterations = %d, want 10", stats.Iterations)
	}
	if stats.BoundStopped {
		t.Fatal("acyclic run hit the bound")
	}
}
