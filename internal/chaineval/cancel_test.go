package chaineval

import (
	"context"
	"errors"
	"fmt"
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
	_, err := eng.QueryCtx(ctx, "tc", a)
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
	_, err = eng.QueryCtx(ctx, "tc", a)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded (warm run %v), got %v", warmDur, err)
	}

	// The pooled scratch must be reusable: an uncanceled run still
	// returns the complete answer set.
	again, err := eng.QueryCtx(context.Background(), "tc", a)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Answers) != n-1 {
		t.Fatalf("post-cancel run: want %d answers, got %d", n-1, len(again.Answers))
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
	bg, err := eng.QueryCtx(context.Background(), "tc", a)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Answers) != len(bg.Answers) {
		t.Fatalf("answer sets differ: %d vs %d", len(plain.Answers), len(bg.Answers))
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

// TestParallelCtxCanceled verifies the sharded traversal observes
// cancellation too.
func TestParallelCtxCanceled(t *testing.T) {
	eng, _, a := bigChainEngine(t, 1<<15, Options{Parallelism: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.QueryCtx(ctx, "tc", a)
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
