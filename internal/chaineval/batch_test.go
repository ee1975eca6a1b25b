package chaineval

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"chainlog/internal/equations"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

// TestQueryBatchMatchesQuery pins the batch API to its specification:
// QueryBatch over a binding set returns, per binding, exactly the answer
// set of a standalone Query — through the shared-traversal route on
// regular equations (tc) and the per-distinct-binding route on expanding
// ones (sg), sequentially and with a worker pool, forward and inverse.
// Duplicate bindings must get the same answers as unique ones.
func TestQueryBatchMatchesQuery(t *testing.T) {
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
				store, _ := workload.RandomGraph(st, 20, 55, seed)
				res := parser.MustParse(pc.text, st)
				sys, err := equations.Transform(res.Program)
				if err != nil {
					return false
				}
				if _, ok := sys.EquationFor(pc.pred); !ok {
					return true
				}
				// Bindings: the edge domain plus a repeated constant.
				domain := store.Relation("edge").Domain(0)
				if len(domain) == 0 {
					return true
				}
				bindings := append(append([]symtab.Sym(nil), domain...), domain[0])

				for _, opts := range []Options{{}, {Parallelism: 4}} {
					eng := New(sys, StoreSource{Store: store}, opts)
					rev := New(sys.Reverse(), StoreSource{Store: store}, opts)
					batch, _, err := eng.QueryBatchCtx(nil, pc.pred, bindings, 0)
					if err != nil {
						return false
					}
					inv, _, err := rev.QueryBatchCtx(nil, pc.pred, bindings, 0)
					if err != nil {
						return false
					}
					for i, a := range bindings {
						want, err := eng.Query(pc.pred, a)
						if err != nil {
							return false
						}
						if !sameSyms(batch[i], want.Answers) {
							t.Logf("seed %d opts %+v binding %v: batch %v want %v", seed, opts, a, batch[i], want.Answers)
							return false
						}
						winv, err := rev.Query(pc.pred, a)
						if err != nil {
							return false
						}
						if !sameSyms(inv[i], winv.Answers) {
							t.Logf("seed %d opts %+v inverse binding %v: batch %v want %v", seed, opts, a, inv[i], winv.Answers)
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// sameSyms compares two sorted answer sets, treating nil and empty as
// equal.
func sameSyms(a, b []symtab.Sym) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// TestQueryBatchSharesTraversal pins the point of the shared route: on a
// regular equation, batching all sources must consult far fewer tuples
// than evaluating each source separately, because overlapping reachable
// subgraphs are traversed once.
func TestQueryBatchSharesTraversal(t *testing.T) {
	st := symtab.NewTable()
	store, _ := workload.Chain(st, 256)
	res := parser.MustParse("tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n", st)
	sys, err := equations.Transform(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	sources := store.Relation("edge").Domain(0)

	eng := New(sys, StoreSource{Store: store}, Options{})
	batch, batchRes, err := eng.QueryBatchCtx(nil, "tc", sources, 0)
	if err != nil {
		t.Fatal(err)
	}
	batchRetrieved := batchRes.Retrieved

	var loopRetrieved int64
	for i, a := range sources {
		r, err := eng.Query("tc", a)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSyms(batch[i], r.Answers) {
			t.Fatalf("binding %v: batch %v want %v", a, batch[i], r.Answers)
		}
		loopRetrieved += r.Retrieved
	}

	if batchRetrieved*4 > loopRetrieved {
		t.Fatalf("shared traversal did not share: batch retrieved %d, per-source loop %d", batchRetrieved, loopRetrieved)
	}
}

// MaxNodes caps the shared traversal while it grows: a batch or all-pairs
// query whose graph outgrows the bound fails having probed at most the
// bound's worth of nodes, instead of building the whole graph first.
func TestQueryBatchMaxNodesStopsEarly(t *testing.T) {
	st := symtab.NewTable()
	store, src := workload.Chain(st, 4096)
	sys, err := equations.Transform(parser.MustParse("tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n", st).Program)
	if err != nil {
		t.Fatal(err)
	}
	const maxNodes = 100
	// A failed run returns no Result, so the source tallies its own probes.
	var lookups int
	edge := store.Relation("edge")
	counted := FuncSource{
		Succ: func(_ string, u symtab.Sym) []symtab.Sym { lookups++; return edge.Successors(u) },
		Pred: func(_ string, v symtab.Sym) []symtab.Sym { lookups++; return edge.Predecessors(v) },
	}
	eng := New(sys, counted, Options{MaxNodes: maxNodes})
	for name, run := range map[string]func() error{
		"batch": func() error { _, _, err := eng.QueryBatchCtx(nil, "tc", []symtab.Sym{src}, maxNodes); return err },
		"all":   func() error { _, _, err := eng.QueryAll("tc", edge.Domain(0)); return err },
	} {
		lookups = 0
		if err := run(); !errors.Is(err, ErrMaxNodes) {
			t.Fatalf("%s: want ErrMaxNodes, got %v", name, err)
		}
		if lookups > maxNodes {
			t.Errorf("%s: %d lookups before the %d-node cap fired", name, lookups, maxNodes)
		}
	}
}
