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
	"chainlog/internal/workload"
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

// BenchmarkGenealogy is the traversal layer of the sparse-large
// workload: sg(?, Y) over a random genealogy of 50,000 people — person i
// is a child of one person drawn among the earlier ones, down is the
// inverse of up, and everyone from person 500 on is flat to itself —
// bound to people drawn from the upper half. The data is acyclic, so a
// query's work is its reach; it reports the mean nodes, iterations and
// probes per query beside the time.
func BenchmarkGenealogy(b *testing.B) {
	const people, flatFrom = 50_000, 500
	st := symtab.NewTable()
	store := edb.NewStore(st)
	person := make([]symtab.Sym, people)
	for i := range person {
		person[i] = st.Intern(fmt.Sprintf("p%d", i))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 1; i < people; i++ {
		parent := person[rng.Intn(i)]
		store.Insert("up", person[i], parent)
		store.Insert("down", parent, person[i])
	}
	for i := flatFrom; i < people; i++ {
		store.Insert("flat", person[i], person[i])
	}
	bindings := make([]symtab.Sym, 256)
	for i := range bindings {
		bindings[i] = person[people/2+rng.Intn(people/2)]
	}
	sys, err := equations.Transform(parser.MustParse(workload.SGProgram, st).Program)
	if err != nil {
		b.Fatal(err)
	}
	eng := New(sys, StoreSource{Store: store}, Options{})
	eng.Precompile("sg")
	b.ReportAllocs()
	var dst []symtab.Sym
	var nodes, iterations, lookups, queries int64
	for b.Loop() {
		a := bindings[queries%int64(len(bindings))]
		var res Result
		if dst, res, err = eng.QueryInto(nil, "sg", a, dst[:0], 0, 1); err != nil || len(dst) == 0 {
			b.Fatalf("sg(%s, Y): %d answers, err %v", st.Name(a), len(dst), err)
		}
		nodes += int64(res.Nodes)
		iterations += int64(res.Iterations)
		lookups += res.Lookups
		queries++
	}
	b.ReportMetric(float64(nodes)/float64(queries), "nodes/op")
	b.ReportMetric(float64(iterations)/float64(queries), "iterations/op")
	b.ReportMetric(float64(lookups)/float64(queries), "lookups/op")
}

// BenchmarkLargeDomain is a selective tc walk over a domain of 5,000,000
// terms, above what a visited page per state would be sized to: 4,096
// hops, one term every 1,220, so the walk touches a few terms in each of
// many blocks.
func BenchmarkLargeDomain(b *testing.B) {
	eng := largeDomainChain(b).eng
	b.ReportAllocs()
	for b.Loop() {
		if res, err := eng.Query("tc", 0); err != nil || len(res.Answers) != 4096 {
			b.Fatalf("%v, err %v", res, err)
		}
	}
}

// tcSystem compiles tc as the transitive closure of the base relation rel.
func tcSystem(tb testing.TB, st *symtab.Table, rel string) *equations.System {
	tb.Helper()
	sys, err := equations.Transform(parser.MustParse(fmt.Sprintf("tc(X, Y) :- %[1]s(X, Y).\ntc(X, Y) :- %[1]s(X, Z), tc(Z, Y).\n", rel), st).Program)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// A batchShape is one tc batch: an engine and the bindings it is asked
// for.
type batchShape struct {
	name    string
	eng     *Engine
	sources []symtab.Sym
}

// largeDomainChain is BenchmarkLargeDomain's source, a 4,096-hop chain
// over a 5,000,000-term domain from 0, with its first two terms.
func largeDomainChain(tb testing.TB) batchShape {
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
	}
	return batchShape{"chain-5M", New(tcSystem(tb, symtab.NewTable(), "e"), src, Options{}), []symtab.Sym{0, stride}}
}

// batchShapes builds the tc batches BenchmarkBatchShapes times: the
// wide-answer tree from its 64 shallowest nodes and from all of them, the
// large-domain chain, a ring, a random cyclic graph and a short chain,
// each from every node.
func batchShapes(tb testing.TB) []batchShape {
	const n = 1<<14 - 1
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i+1)
	}
	st := symtab.NewTable()
	for _, name := range slices.Sorted(slices.Values(names)) {
		st.Intern(name)
	}
	tree := edb.NewStore(st)
	for _, i := range rand.New(rand.NewSource(1)).Perm(n - 1) {
		tree.Insert("e", st.Intern(names[(i+2)/2-1]), st.Intern(names[i+1]))
	}
	all := make([]symtab.Sym, n)
	for i, name := range names {
		all[i] = st.Intern(name)
	}
	treeEng := New(tcSystem(tb, st, "e"), StoreSource{Store: tree}, Options{})

	ringSt := symtab.NewTable()
	ring := edb.NewStore(ringSt)
	for i := range 2048 {
		ring.Insert("e", ringSt.Intern(fmt.Sprintf("r%d", i)), ringSt.Intern(fmt.Sprintf("r%d", (i+1)%2048)))
	}
	randSt := symtab.NewTable()
	random, _ := workload.RandomGraph(randSt, 2000, 6000, 1)
	chainSt := symtab.NewTable()
	chain, _ := workload.Chain(chainSt, 256)
	every := func(st *symtab.Table) []symtab.Sym {
		out := make([]symtab.Sym, st.Len())
		for i := range out {
			out[i] = symtab.Sym(i)
		}
		return out
	}
	shapes := []batchShape{
		{"tree-t1..t64", treeEng, all[:64]},
		{"tree-all", treeEng, all},
		largeDomainChain(tb),
		{"ring-2048", New(tcSystem(tb, ringSt, "e"), StoreSource{Store: ring}, Options{}), every(ringSt)},
		{"random-2000x6000", New(tcSystem(tb, randSt, "edge"), StoreSource{Store: random}, Options{}), every(randSt)},
		{"chain-256", New(tcSystem(tb, chainSt, "edge"), StoreSource{Store: chain}, Options{}), every(chainSt)},
	}
	for _, s := range shapes {
		s.eng.Precompile("tc")
	}
	return shapes
}

// BenchmarkBatchShapes times one tc batch per shape against a loop of
// single queries over the same bindings, the engine call only: batch is
// QueryBatchCtx, loop is QueryInto once per binding into one buffer.
func BenchmarkBatchShapes(b *testing.B) {
	for _, s := range batchShapes(b) {
		b.Run(s.name+"/batch", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := s.eng.QueryBatchCtx(nil, "tc", s.sources, 0, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(s.name+"/loop", func(b *testing.B) {
			b.ReportAllocs()
			var dst []symtab.Sym
			for b.Loop() {
				for _, a := range s.sources {
					var err error
					if dst, _, err = s.eng.QueryInto(nil, "tc", a, dst[:0], 0, 1); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
