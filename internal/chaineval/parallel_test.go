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

// lowerShardThreshold forces levels of a handful of nodes through the
// sharded path, so small random graphs exercise the worker pool and the
// word-level merge instead of always falling back to inline levels.
func lowerShardThreshold(t *testing.T, n int) {
	t.Helper()
	old := parFrontierThreshold
	parFrontierThreshold = n
	t.Cleanup(func() { parFrontierThreshold = old })
}

// TestParallelSequentialEquivalence is the core property of the sharded
// evaluator: for random programs and stores, Parallelism: N returns
// byte-identical answer sets — and identical node/iteration/probe
// statistics — to the sequential evaluator, forward and inverse, in
// dense and sparse visited modes.
func TestParallelSequentialEquivalence(t *testing.T) {
	lowerShardThreshold(t, 3)
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
				store, src := workload.RandomGraph(st, 24, 70, seed)
				res := parser.MustParse(pc.text, st)
				sys, err := equations.Transform(res.Program)
				if err != nil {
					return false
				}
				if _, ok := sys.EquationFor(pc.pred); !ok {
					return true
				}
				seq := New(sys, StoreSource{Store: store}, Options{})
				for _, opts := range []Options{
					{Parallelism: 4},
					{Parallelism: -1},
					{Parallelism: 4, sparseVisited: true},
				} {
					par := New(sys, StoreSource{Store: store}, opts)

					want, werr := seq.Query(pc.pred, src)
					got, gerr := par.Query(pc.pred, src)
					if (werr == nil) != (gerr == nil) {
						return false
					}
					if werr == nil {
						if !reflect.DeepEqual(want.Answers, got.Answers) {
							t.Logf("seed %d opts %+v: seq %v par %v", seed, opts, want.Answers, got.Answers)
							return false
						}
						if want.Nodes != got.Nodes || want.Iterations != got.Iterations || want.Expansions != got.Expansions {
							t.Logf("seed %d opts %+v: stats seq %+v par %+v", seed, opts, want, got)
							return false
						}
					}

					winv, werr := New(sys.Reverse(), StoreSource{Store: store}, Options{}).Query(pc.pred, src)
					ginv, gerr := New(sys.Reverse(), StoreSource{Store: store}, opts).Query(pc.pred, src)
					if (werr == nil) != (gerr == nil) {
						return false
					}
					if werr == nil && !reflect.DeepEqual(winv.Answers, ginv.Answers) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestParallelProbeCounts pins the exactly-once processing argument: the
// sharded evaluator must consult the same number of extensional tuples
// as the sequential one (each graph node is expanded exactly once, in
// whichever mode), so retrieval statistics stay meaningful under
// Parallelism.
func TestParallelProbeCounts(t *testing.T) {
	lowerShardThreshold(t, 3)
	st := symtab.NewTable()
	w := workload.SampleB(st, 64)
	res := parser.MustParse(workload.SGProgram, st)
	sys, err := equations.Transform(res.Program)
	if err != nil {
		t.Fatal(err)
	}

	w.Store.Counters.Reset()
	seq := New(sys, StoreSource{Store: w.Store}, Options{})
	if _, err := seq.Query("sg", w.Query); err != nil {
		t.Fatal(err)
	}
	seqCounts := w.Store.Counters.Snapshot()

	w.Store.Counters.Reset()
	par := New(sys, StoreSource{Store: w.Store}, Options{Parallelism: 4})
	if _, err := par.Query("sg", w.Query); err != nil {
		t.Fatal(err)
	}
	parCounts := w.Store.Counters.Snapshot()

	if seqCounts.Retrieved != parCounts.Retrieved || seqCounts.Lookups != parCounts.Lookups {
		t.Fatalf("probe counts diverge: sequential %+v parallel %+v", seqCounts, parCounts)
	}
}

// TestParallelMaxNodes pins the resource bound under sharding: the
// parallel evaluator must refuse oversized interpretation graphs with
// the same error the sequential one reports.
func TestParallelMaxNodes(t *testing.T) {
	lowerShardThreshold(t, 3)
	st := symtab.NewTable()
	w := workload.SampleB(st, 64)
	res := parser.MustParse(workload.SGProgram, st)
	sys, err := equations.Transform(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	seq := New(sys, StoreSource{Store: w.Store}, Options{MaxNodes: 50})
	par := New(sys, StoreSource{Store: w.Store}, Options{MaxNodes: 50, Parallelism: 4})
	_, serr := seq.Query("sg", w.Query)
	_, perr := par.Query("sg", w.Query)
	if serr == nil || perr == nil {
		t.Fatalf("MaxNodes not enforced: sequential err %v, parallel err %v", serr, perr)
	}
	if serr.Error() != perr.Error() {
		t.Fatalf("error text diverges: %q vs %q", serr, perr)
	}
}
