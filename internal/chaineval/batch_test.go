package chaineval

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"chainlog/internal/edb"
	"chainlog/internal/equations"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

// TestQueryBatchMatchesQuery pins the batch API to its specification:
// QueryBatch over a binding set returns, per binding, exactly the answer
// set of a standalone Query — through the shared-graph route on regular
// equations (tc) and the per-distinct-binding route on expanding ones
// (sg), sequentially and with a worker pool, forward and inverse.
// Duplicate bindings must get the same answers as unique ones. Beside
// random graphs, fixed shapes exercise what the shared route shares: a
// ring, 2-cycles joined one way, self-loops, and sources inside a cycle
// beside sources above it.
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
	// matches reports whether every batch answer over bindings, each
	// followed by a repeat of the first, equals its binding's Query.
	matches := func(t *testing.T, text, pred string, store *edb.Store, bindings []symtab.Sym) bool {
		sys, err := equations.Transform(parser.MustParse(text, store.SymTab()).Program)
		if err != nil {
			return false
		}
		if _, ok := sys.EquationFor(pred); !ok {
			return true
		}
		bindings = append(append([]symtab.Sym(nil), bindings...), bindings[0])
		for _, workers := range []int{1, 4} {
			for dir, eng := range map[string]*Engine{
				"forward": New(sys, StoreSource{Store: store}, Options{}),
				"inverse": New(sys.Reverse(), StoreSource{Store: store}, Options{}),
			} {
				batch, _, err := eng.QueryBatchCtx(nil, pred, bindings, 0, workers)
				if err != nil {
					return false
				}
				for i, a := range bindings {
					want, err := eng.Query(pred, a)
					if err != nil {
						return false
					}
					if !sameSyms(batch[i], want.Answers) {
						t.Logf("workers %d %s binding %v: batch %v want %v", workers, dir, a, batch[i], want.Answers)
						return false
					}
				}
			}
		}
		return true
	}
	// Each shape's edges, "from to" pairs; its bindings are all its terms.
	shapes := map[string][]string{
		"ring":          {"r0 r1", "r1 r2", "r2 r3", "r3 r4", "r4 r0"},
		"two-cycles":    {"a0 b0", "b0 a0", "b0 a1", "a1 b1", "b1 a1", "b1 a2", "a2 b2", "b2 a2", "b2 z"},
		"self-loops":    {"s s", "s t", "t t", "t u", "v v"},
		"above-a-cycle": {"x w", "w c0", "c0 c1", "c1 c2", "c2 c0", "c1 d", "d e", "y c2"},
	}
	for _, pc := range progs {
		t.Run(pc.name, func(t *testing.T) {
			f := func(seed int64) bool {
				st := symtab.NewTable()
				store, _ := workload.RandomGraph(st, 20, 55, seed)
				// Bindings: the edge domain plus a repeated constant.
				domain := store.Relation("edge").Domain(0)
				return len(domain) == 0 || matches(t, pc.text, pc.pred, store, domain)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
			for name, edges := range shapes {
				st := symtab.NewTable()
				store := edb.NewStore(st)
				for _, e := range edges {
					from, to, _ := strings.Cut(e, " ")
					store.Insert("edge", st.Intern(from), st.Intern(to))
				}
				terms := make([]symtab.Sym, st.Len())
				for i := range terms {
					terms[i] = symtab.Sym(i)
				}
				if !matches(t, pc.text, pc.pred, store, terms) {
					t.Errorf("%s: a batch answer differs from its query's", name)
				}
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
	batch, batchRes, err := eng.QueryBatchCtx(nil, "tc", sources, 0, 1)
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
		"batch": func() error { _, _, err := eng.QueryBatchCtx(nil, "tc", []symtab.Sym{src}, maxNodes, 1); return err },
		"all":   func() error { _, _, err := queryAll(eng, nil, "tc", edge.Domain(0), maxNodes); return err },
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

// TestBatchAllocatesLinearly pins what a cold batch costs on a deep
// acyclic graph over a large domain: the 4,096-hop chain over 5,000,000
// terms, from two sources, allocates memory in proportion to its graph
// and answers, not to the domain or to the closure of the graph.
func TestBatchAllocatesLinearly(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const limit = 32 << 20
	s := largeDomainChain(t)
	runtime.GC()
	runtime.GC() // empties the scratch pools, so the batch runs cold
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	answers, _, err := s.eng.QueryBatchCtx(nil, "tc", s.sources, 0, 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers[0]) != 4096 || len(answers[1]) != 4095 {
		t.Fatalf("%d and %d answers, want 4096 and 4095", len(answers[0]), len(answers[1]))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("a cold batch allocates %d bytes, want <= %d", got, limit)
	}
}
