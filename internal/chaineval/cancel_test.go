package chaineval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"chainlog/internal/edb"
	"chainlog/internal/equations"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
)

// bigChainEngine builds an engine over tc (transitive closure) on a
// single edge-chain of n nodes: the traversal from node 0 must visit all
// n nodes, giving cancellation something substantial to interrupt.
func bigChainEngine(t *testing.T, n int, opts Options) (*Engine, *symtab.Table, symtab.Sym) {
	t.Helper()
	st := symtab.NewTable()
	store := edb.NewStore(st)
	for i := 0; i < n-1; i++ {
		store.Insert("e", st.Intern(fmt.Sprintf("n%d", i)), st.Intern(fmt.Sprintf("n%d", i+1)))
	}
	res, err := parser.Parse(`
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- e(X, Y), tc(Y, Z).
	`, st)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := equations.Transform(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(sys, StoreSource{Store: store}, opts)
	eng.Precompile("tc")
	a, _ := st.Lookup("n0")
	return eng, st, a
}

// TestQueryCtxCanceled verifies an already-canceled context aborts the
// run before any meaningful work and surfaces context.Canceled.
func TestQueryCtxCanceled(t *testing.T) {
	eng, _, a := bigChainEngine(t, 1<<14, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := eng.QueryInto(ctx, "tc", a, nil, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestQueryCtxDeadlineMidTraversal verifies a deadline fires inside a
// single-iteration (regular) traversal — the case the level-boundary
// check alone would miss — and that the engine remains usable after.
func TestQueryCtxDeadlineMidTraversal(t *testing.T) {
	const n = 1 << 17
	eng, _, a := bigChainEngine(t, n, Options{})

	// Warm up (builds the lazy CSR adjacency and engine caches), then
	// time a warm run: the cancellation deadline must be derived from
	// warm traversal speed, not cold-start cost.
	full, err := eng.Query("tc", a)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Answers) != n-1 {
		t.Fatalf("full run: want %d answers, got %d", n-1, len(full.Answers))
	}
	t0 := time.Now()
	if _, err := eng.Query("tc", a); err != nil {
		t.Fatal(err)
	}
	warmDur := time.Since(t0)

	// A deadline a fraction of the warm duration in: the run must abort
	// with DeadlineExceeded instead of completing.
	ctx, cancel := context.WithTimeout(context.Background(), warmDur/10+time.Microsecond)
	defer cancel()
	_, _, err = eng.QueryInto(ctx, "tc", a, nil, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded (warm run %v), got %v", warmDur, err)
	}

	// The pooled scratch must be reusable: an uncanceled run still
	// returns the complete answer set.
	again, _, err := eng.QueryInto(context.Background(), "tc", a, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != n-1 {
		t.Fatalf("post-cancel run: want %d answers, got %d", n-1, len(again))
	}
}

// TestQueryCtxNilMatchesNoCtx pins that the ctx-free and nil-ctx paths
// agree, and that a background context changes nothing.
func TestQueryCtxNilMatchesNoCtx(t *testing.T) {
	eng, _, a := bigChainEngine(t, 256, Options{})
	plain, err := eng.Query("tc", a)
	if err != nil {
		t.Fatal(err)
	}
	bg, _, err := eng.QueryInto(context.Background(), "tc", a, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Answers) != len(bg) {
		t.Fatalf("answer sets differ: %d vs %d", len(plain.Answers), len(bg))
	}
}

// TestBatchCtxCanceled verifies cancellation propagates through the
// shared-traversal batch route.
func TestBatchCtxCanceled(t *testing.T) {
	eng, st, _ := bigChainEngine(t, 1024, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srcs := []symtab.Sym{mustSym(t, st, "n0"), mustSym(t, st, "n1")}
	_, _, err := eng.QueryBatchCtx(ctx, "tc", srcs, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// pollCancel is a context that reports itself cancelled from its k-th
// poll on, counting the polls it sees.
type pollCancel struct {
	context.Context
	polls, k int
}

func (c *pollCancel) Done() <-chan struct{} {
	if c.polls++; c.polls >= c.k {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	return nil
}

func (c *pollCancel) Err() error {
	if c.polls >= c.k {
		return context.Canceled
	}
	return nil
}

// TestBatchCancelAtEachPoll cancels a tc batch over the wide-answer tree
// from its 64 shallowest nodes, deepest first, at each poll it makes in
// turn, some while the graph is built and some during the walks, and runs
// the batch again after each: the cancelled batch returns
// context.Canceled, and the next answers as the first did, answers and
// work alike. A cancelled batch leaves no node numbered and no term
// collected in the pooled scratch: the next batch's first source reaches
// few terms, so a stale one would show in its answer.
func TestBatchCancelAtEachPoll(t *testing.T) {
	s := batchShapes(t)[0]
	slices.Reverse(s.sources)
	want, wantRes, err := s.eng.QueryBatchCtx(nil, "tc", s.sources, 0)
	if err != nil {
		t.Fatal(err)
	}
	count := &pollCancel{Context: context.Background(), k: math.MaxInt}
	if _, _, err := s.eng.QueryBatchCtx(count, "tc", s.sources, 0); err != nil {
		t.Fatal(err)
	}
	if build := wantRes.Nodes / (cancelCheckMask + 1); count.polls < build+2 {
		t.Fatalf("%d polls, %d of them building the graph: the walks must poll too", count.polls, build)
	}
	for k := 1; k <= count.polls; k++ {
		if _, _, err := s.eng.QueryBatchCtx(&pollCancel{Context: context.Background(), k: k}, "tc", s.sources, 0); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at poll %d of %d: err %v, want %v", k, count.polls, err, context.Canceled)
		}
		got, res, err := s.eng.QueryBatchCtx(nil, "tc", s.sources, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || res.Nodes != wantRes.Nodes || res.Lookups != wantRes.Lookups || res.Retrieved != wantRes.Retrieved {
			t.Fatalf("after a cancel at poll %d: nodes/lookups/retrieved %d/%d/%d, first batch %d/%d/%d, answers equal %v",
				k, res.Nodes, res.Lookups, res.Retrieved, wantRes.Nodes, wantRes.Lookups, wantRes.Retrieved, reflect.DeepEqual(got, want))
		}
	}
}

// TestParallelCtxCanceled verifies the sharded traversal observes
// cancellation too.
func TestParallelCtxCanceled(t *testing.T) {
	eng, _, a := bigChainEngine(t, 1<<15, Options{Parallelism: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := eng.QueryInto(ctx, "tc", a, nil, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func mustSym(t *testing.T, st *symtab.Table, name string) symtab.Sym {
	t.Helper()
	s, ok := st.Lookup(name)
	if !ok {
		t.Fatalf("unknown symbol %s", name)
	}
	return s
}
