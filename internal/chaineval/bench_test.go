package chaineval

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"chainlog/internal/edb"
	"chainlog/internal/equations"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
)

// BenchmarkQueryWide is the traversal layer of the wide-answer workload:
// tc(t4, Y) on the binary tree of 16,383 nodes t1 -> t2, t3, ..., 4,094
// answers, with the symbols numbered in name order as a snapshot numbers
// them. It reports the interpretation graph's nodes and the probes per
// query beside the time.
func BenchmarkQueryWide(b *testing.B) {
	const n = 1<<14 - 1
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i+1)
	}
	st := symtab.NewTable()
	for _, name := range slices.Sorted(slices.Values(names)) {
		st.Intern(name)
	}
	store := edb.NewStore(st)
	for _, i := range rand.New(rand.NewSource(1)).Perm(n - 1) {
		store.Insert("e", st.Intern(names[(i+2)/2-1]), st.Intern(names[i+1]))
	}
	sys, err := equations.Transform(parser.MustParse("tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\n", st).Program)
	if err != nil {
		b.Fatal(err)
	}
	eng := New(sys, StoreSource{Store: store}, Options{})
	a := st.Intern("t4")
	b.ReportAllocs()
	var res *Result
	for b.Loop() {
		if res, err = eng.Query("tc", a); err != nil || len(res.Answers) != 4094 {
			b.Fatalf("%v answers, err %v", res, err)
		}
	}
	b.ReportMetric(float64(res.Nodes), "nodes/op")
	b.ReportMetric(float64(res.Lookups), "lookups/op")
}

// BenchmarkLargeDomain is a selective tc walk over a domain of 5,000,000
// terms, above what a visited page per state would be sized to: 4,096
// hops, one term every 1,220, so the walk touches a few terms in each of
// many blocks. The source reports the domain's size as its symbol bound.
func BenchmarkLargeDomain(b *testing.B) {
	const domain, hops = 5_000_000, 4096
	const stride = domain / hops
	next := make([]symtab.Sym, hops)
	for k := range next {
		next[k] = symtab.Sym((k + 1) * stride)
	}
	src := FuncSource{
		Succ: func(_ string, u symtab.Sym) []symtab.Sym {
			if k := int(u) / stride; int(u)%stride == 0 && k < hops {
				return next[k : k+1]
			}
			return nil
		},
		Bound: func() int { return domain },
	}
	sys, err := equations.Transform(parser.MustParse("tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\n", symtab.NewTable()).Program)
	if err != nil {
		b.Fatal(err)
	}
	eng := New(sys, src, Options{})
	b.ReportAllocs()
	for b.Loop() {
		if res, err := eng.Query("tc", 0); err != nil || len(res.Answers) != hops {
			b.Fatalf("%v, err %v", res, err)
		}
	}
}
