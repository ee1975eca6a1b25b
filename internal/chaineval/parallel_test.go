package chaineval

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"chainlog/internal/edb"
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
// evaluator: for random programs and stores, a run on N workers returns
// byte-identical answer sets — and identical node/iteration/probe
// statistics — to the sequential evaluator, forward and inverse.
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
				for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
					want, werr := seq.Query(pc.pred, src)
					got, gerr := seq.RunWorkers(pc.pred, src, workers)
					if (werr == nil) != (gerr == nil) {
						return false
					}
					if werr == nil {
						if !reflect.DeepEqual(want.Answers, got.Answers) {
							t.Logf("seed %d workers %d: seq %v par %v", seed, workers, want.Answers, got.Answers)
							return false
						}
						if want.Nodes != got.Nodes || want.Iterations != got.Iterations || want.Expansions != got.Expansions {
							t.Logf("seed %d workers %d: stats seq %+v par %+v", seed, workers, want, got)
							return false
						}
					}

					winv, werr := New(sys.Reverse(), StoreSource{Store: store}, Options{}).Query(pc.pred, src)
					ginv, gerr := New(sys.Reverse(), StoreSource{Store: store}, Options{}).RunWorkers(pc.pred, src, workers)
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
// whichever mode), so retrieval statistics stay meaningful on any
// number of workers.
func TestParallelProbeCounts(t *testing.T) {
	lowerShardThreshold(t, 3)
	st := symtab.NewTable()
	w := workload.SampleB(st, 64)
	res := parser.MustParse(workload.SGProgram, st)
	sys, err := equations.Transform(res.Program)
	if err != nil {
		t.Fatal(err)
	}

	seq, err := New(sys, StoreSource{Store: w.Store}, Options{}).Query("sg", w.Query)
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(sys, StoreSource{Store: w.Store}, Options{}).RunWorkers("sg", w.Query, 4)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Retrieved != par.Retrieved || seq.Lookups != par.Lookups || seq.Lookups == 0 {
		t.Fatalf("probe counts diverge: sequential %d facts in %d lookups, parallel %d in %d",
			seq.Retrieved, seq.Lookups, par.Retrieved, par.Lookups)
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
	_, serr := seq.Query("sg", w.Query)
	_, perr := seq.RunWorkers("sg", w.Query, 4)
	if serr == nil || perr == nil {
		t.Fatalf("MaxNodes not enforced: sequential err %v, parallel err %v", serr, perr)
	}
	if serr.Error() != perr.Error() {
		t.Fatalf("error text diverges: %q vs %q", serr, perr)
	}
}

// TestParallelMergeDropsDuplicates pins the merge's AND-NOT: on layers
// where every node of one layer reaches every node of the next, each
// worker generates the whole next layer, and only the first copy of a
// node may enter the graph.
func TestParallelMergeDropsDuplicates(t *testing.T) {
	lowerShardThreshold(t, 3)
	const layers, width = 4, 64
	st := symtab.NewTable()
	store := edb.NewStore(st)
	name := func(l, k int) symtab.Sym { return st.Intern(fmt.Sprintf("l%dn%d", l, k)) }
	src := st.Intern("src")
	for k := range width {
		store.Insert("edge", src, name(0, k))
		for l := 0; l+1 < layers; l++ {
			for j := range width {
				store.Insert("edge", name(l, k), name(l+1, j))
			}
		}
	}
	sys, err := equations.Transform(parser.MustParse("tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n", st).Program)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := New(sys, StoreSource{Store: store}, Options{}).Query("tc", src)
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(sys, StoreSource{Store: store}, Options{}).RunWorkers("tc", src, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Answers) != layers*width || !reflect.DeepEqual(seq.Answers, par.Answers) {
		t.Fatalf("%d answers, parallel %d; want %d", len(seq.Answers), len(par.Answers), layers*width)
	}
	if seq.Nodes != par.Nodes || seq.Lookups != par.Lookups {
		t.Fatalf("sequential %d nodes, %d lookups; parallel %d, %d", seq.Nodes, seq.Lookups, par.Nodes, par.Lookups)
	}
}
