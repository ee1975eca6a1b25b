package bottomup

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"chainlog/internal/edb"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
)

// generalJoin loads the shapes of bench's general-join workload: same
// generation over a family of 150 in which person i's parent is person
// (i-1)/3 and everyone from the fifth on is flat with themselves, and
// the nonlinear transitive closure tcn over a chain of 48. Its binary
// relations are built as a program load builds them (BuildBinary), so
// the fixpoint reads the CSR layout the served route reads.
func generalJoin(tb testing.TB) (*symtab.Table, *edb.Store, map[string]*Program) {
	tb.Helper()
	var b strings.Builder
	b.WriteString("tcn(X, Y) :- e(X, Y).\ntcn(X, Y) :- tcn(X, Z), tcn(Z, Y).\n")
	b.WriteString("sg(X, Y) :- flat(X, Y).\nsg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).\n")
	for i := 0; i+1 < 48; i++ {
		fmt.Fprintf(&b, "e(n%d, n%d).\n", i, i+1)
	}
	for i := 1; i < 150; i++ {
		fmt.Fprintf(&b, "up(p%d, p%d).\ndown(p%d, p%d).\n", i, (i-1)/3, (i-1)/3, i)
	}
	for i := 4; i < 150; i++ {
		fmt.Fprintf(&b, "flat(p%d, p%d).\n", i, i)
	}
	st := symtab.NewTable()
	res, err := parser.Parse(b.String(), st)
	if err != nil {
		tb.Fatal(err)
	}
	pairs := map[string][]symtab.Sym{}
	for _, f := range res.Facts {
		pairs[f.Pred] = append(pairs[f.Pred], f.Args...)
	}
	store := edb.NewStore(st)
	for pred, ps := range pairs {
		if _, err := store.BuildBinary(pred, ps); err != nil {
			tb.Fatal(err)
		}
	}
	progs := map[string]*Program{}
	for _, pred := range []string{"sg", "tcn"} {
		slice := *res.Program
		slice.Rules = nil
		for _, r := range res.Program.Rules {
			if r.Head.Pred == pred {
				slice.Rules = append(slice.Rules, r)
			}
		}
		if progs[pred], err = CompileProgram(&slice); err != nil {
			tb.Fatal(err)
		}
	}
	return st, store, progs
}

// BenchmarkFixpoint runs the two fixpoints of general-join warm, on the
// pooled evaluator a served run takes: sg's slice answering sg(p100, Y),
// the pinned seminaive route's query, and the nonlinear tcn's whole
// program answering tcn(n20, Y). What a run costs is its firings — one
// probe of the dedupe set and one insert each — and its lookups, both
// reported per op.
func BenchmarkFixpoint(b *testing.B) {
	st, store, progs := generalJoin(b)
	for _, c := range []struct {
		pred, arg string
		rows      int
	}{
		{"sg", "p100", 9},
		{"tcn", "n20", 27},
	} {
		b.Run(c.pred, func(b *testing.B) {
			p, bound := progs[c.pred], []symtab.Sym{st.Intern(c.arg)}
			var rows int
			count := func([]symtab.Sym) { rows++ }
			var stats Stats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows = 0
				var err error
				if stats, err = p.Each(context.Background(), store, c.pred, 1, bound, count); err != nil || rows != c.rows {
					b.Fatalf("%d rows, err %v; want %d rows", rows, err, c.rows)
				}
			}
			b.ReportMetric(float64(stats.Firings), "firings/op")
			b.ReportMetric(float64(stats.Lookups), "lookups/op")
		})
	}
}
