package chainlog

// Benchmarks regenerating the paper's tables and figures (one benchmark
// family per evaluation artifact; cmd/benchtables prints the same
// experiments as tables of exact counts).
// Work-in-units-of-the-paper (tuples retrieved, graph nodes) is reported
// via b.ReportMetric next to wall time, so `go test -bench=.` prints both
// the shapes and the absolute costs.
//
//	BenchmarkTable1*   — E1, Section 3 comparison table
//	BenchmarkFig7*     — E2, per-sample growth curves
//	BenchmarkFig8*     — E3, cyclic same generation
//	BenchmarkTheorem3  — E4, regular case
//	BenchmarkTheorem4  — E5, linear-case iteration bound
//	BenchmarkFlight    — E8, Section 4 binding propagation
//	BenchmarkAblation* — A1, A2, A4

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"chainlog/internal/bottomup"
	"chainlog/internal/chaineval"
	"chainlog/internal/edb"
	"chainlog/internal/equations"
	"chainlog/internal/expr"
	"chainlog/internal/magic"
	"chainlog/internal/paper/counting"
	"chainlog/internal/paper/hn"
	"chainlog/internal/paper/hunt"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

type sgBench struct {
	w     *workload.SG
	st    *symtab.Table
	sys   *equations.System
	shape equations.LinearShape
}

func newSGBench(b *testing.B, gen func(*symtab.Table, int) *workload.SG, n int) *sgBench {
	b.Helper()
	st := symtab.NewTable()
	w := gen(st, n)
	res, err := parser.Parse(workload.SGProgram, st)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := equations.Transform(res.Program)
	if err != nil {
		b.Fatal(err)
	}
	shape, ok := sys.LinearDecompose("sg")
	if !ok {
		b.Fatal("sg does not decompose")
	}
	return &sgBench{w: w, st: st, sys: sys, shape: shape}
}

var sampleGens = []struct {
	name string
	gen  func(*symtab.Table, int) *workload.SG
}{
	{"sampleA", workload.SampleA},
	{"sampleB", workload.SampleB},
	{"sampleC", workload.SampleC},
}

// BenchmarkTable1 regenerates the Section 3 comparison: every strategy on
// every Figure 7 sample.
func BenchmarkTable1(b *testing.B) {
	const n = 128
	for _, s := range sampleGens {
		b.Run(s.name+"/chain", func(b *testing.B) {
			sb := newSGBench(b, s.gen, n)
			eng := chaineval.New(sb.sys, chaineval.StoreSource{Store: sb.w.Store}, chaineval.Options{})
			var tuples int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Query("sg", sb.w.Query)
				if err != nil {
					b.Fatal(err)
				}
				tuples += res.Retrieved
			}
			b.ReportMetric(float64(tuples)/float64(b.N), "tuples/op")
		})
		b.Run(s.name+"/henschen-naqvi", func(b *testing.B) {
			sb := newSGBench(b, s.gen, n)
			src := chaineval.StoreSource{Store: sb.w.Store}
			var tuples int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats := hn.Evaluate(sb.shape, src, sb.w.Query, 0)
				tuples += stats.Retrieved
			}
			b.ReportMetric(float64(tuples)/float64(b.N), "tuples/op")
		})
		b.Run(s.name+"/counting", func(b *testing.B) {
			sb := newSGBench(b, s.gen, n)
			src := chaineval.StoreSource{Store: sb.w.Store}
			var tuples int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats := counting.Evaluate(sb.shape, src, sb.w.Query, 0)
				tuples += stats.Retrieved
			}
			b.ReportMetric(float64(tuples)/float64(b.N), "tuples/op")
		})
		b.Run(s.name+"/magic", func(b *testing.B) {
			sb := newSGBench(b, s.gen, n)
			prog := parser.MustParse(workload.SGProgram, sb.st).Program
			q := parser.MustParseQuery("sg("+sb.st.Name(sb.w.Query)+", Y)", sb.st)
			var tuples int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats, err := magic.Evaluate(prog, q, sb.w.Store)
				if err != nil {
					b.Fatal(err)
				}
				tuples += stats.Retrieved
			}
			b.ReportMetric(float64(tuples)/float64(b.N), "tuples/op")
		})
	}
}

// BenchmarkFig7 regenerates the growth curves: node counts and probes per
// sample across the size sweep.
func BenchmarkFig7(b *testing.B) {
	for _, s := range sampleGens {
		for _, n := range []int{64, 128, 256} {
			b.Run(fmt.Sprintf("%s/n=%d", s.name, n), func(b *testing.B) {
				sb := newSGBench(b, s.gen, n)
				eng := chaineval.New(sb.sys, chaineval.StoreSource{Store: sb.w.Store}, chaineval.Options{})
				var nodes int
				var lookups int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := eng.Query("sg", sb.w.Query)
					if err != nil {
						b.Fatal(err)
					}
					nodes, lookups = res.Nodes, res.Lookups
				}
				b.ReportMetric(float64(nodes), "graphnodes")
				b.ReportMetric(float64(lookups), "lookups/op")
			})
		}
	}
}

// BenchmarkFig8 regenerates the cyclic experiment: m·n iterations to the
// full answer with the termination bound active.
func BenchmarkFig8(b *testing.B) {
	for _, mn := range [][2]int{{3, 4}, {5, 7}, {9, 11}} {
		b.Run(fmt.Sprintf("m=%d,n=%d", mn[0], mn[1]), func(b *testing.B) {
			st := symtab.NewTable()
			w := workload.Cyclic(st, mn[0], mn[1])
			res := parser.MustParse(workload.SGProgram, st)
			sys, err := equations.Transform(res.Program)
			if err != nil {
				b.Fatal(err)
			}
			eng := chaineval.New(sys, chaineval.StoreSource{Store: w.Store}, chaineval.Options{})
			var iters int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := eng.Query("sg", w.Query)
				if err != nil {
					b.Fatal(err)
				}
				iters = r.Iterations
			}
			b.ReportMetric(float64(iters), "iterations")
		})
	}
}

// BenchmarkTheorem3 measures the regular case: one iteration, work linear
// in the chain length.
func BenchmarkTheorem3(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		b.Run(fmt.Sprintf("chain-n=%d", n), func(b *testing.B) {
			st := symtab.NewTable()
			store, src := workload.Chain(st, n)
			res := parser.MustParse("tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n", st)
			sys, err := equations.Transform(res.Program)
			if err != nil {
				b.Fatal(err)
			}
			eng := chaineval.New(sys, chaineval.StoreSource{Store: store}, chaineval.Options{})
			var nodes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := eng.Query("tc", src)
				if err != nil {
					b.Fatal(err)
				}
				nodes = r.Nodes
			}
			b.ReportMetric(float64(nodes), "graphnodes")
		})
	}
}

// BenchmarkTheorem4 measures h·n·t behavior on random genealogies: the
// iterations and the probes of one query.
func BenchmarkTheorem4(b *testing.B) {
	for _, n := range []int{200, 400} {
		b.Run(fmt.Sprintf("tree-n=%d", n), func(b *testing.B) {
			st := symtab.NewTable()
			w := workload.RandomTree(st, n, 0.3, 1)
			res := parser.MustParse(workload.SGProgram, st)
			sys, err := equations.Transform(res.Program)
			if err != nil {
				b.Fatal(err)
			}
			eng := chaineval.New(sys, chaineval.StoreSource{Store: w.Store}, chaineval.Options{})
			var iters int
			var lookups int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := eng.Query("sg", w.Query)
				if err != nil {
					b.Fatal(err)
				}
				iters, lookups = r.Iterations, r.Lookups
			}
			b.ReportMetric(float64(iters), "iterations")
			b.ReportMetric(float64(lookups), "lookups/op")
		})
	}
}

// BenchmarkFlight exercises the Section 4 pipeline end to end through the
// public API (E8).
func BenchmarkFlight(b *testing.B) {
	db := NewDB()
	if err := db.LoadProgram(workload.FlightProgram); err != nil {
		b.Fatal(err)
	}
	f := workload.FlightDB(db.SymTab(), 30, 5, 1)
	db.SetStore(f.Store)
	query := fmt.Sprintf("cnx(%s, %s, D, AT)", db.Name(f.Source), db.Name(f.DepTime))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := db.Query(query)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(ans.Rows)), "answers")
		}
	}
}

// BenchmarkPrepared measures the prepared-query API: compile once /
// bind many (Prepared.Run cycling through distinct bound constants)
// against cold per-call compilation (Prepare+Run each iteration). The
// /section4 pair demonstrates the acceptance target: amortizing the
// adornment, transformation, equation build and automaton construction
// across calls.
func BenchmarkPrepared(b *testing.B) {
	newFlightDB := func(b *testing.B, airports, perAirport int) (*DB, []string) {
		b.Helper()
		db := NewDB()
		if err := db.LoadProgram(workload.FlightProgram); err != nil {
			b.Fatal(err)
		}
		f := workload.FlightDB(db.SymTab(), airports, perAirport, 1)
		db.SetStore(f.Store)
		// Distinct bound constants: every flight departure (city, time).
		rel := f.Store.Relation("flight")
		seen := map[string]bool{}
		var consts [][2]string
		for i := 0; i < rel.Len(); i++ {
			t := rel.Tuple(i)
			k := db.Name(t[0]) + "/" + db.Name(t[1])
			if !seen[k] {
				seen[k] = true
				consts = append(consts, [2]string{db.Name(t[0]), db.Name(t[1])})
			}
		}
		flat := make([]string, 0, 2*len(consts))
		for _, c := range consts {
			flat = append(flat, c[0], c[1])
		}
		return db, flat
	}
	// Two data scales: "selective" is the prepared-statement regime (many
	// cheap point queries, compile dominates), "bulk" the regime where
	// the traversal dwarfs compilation.
	for _, size := range []struct {
		name                 string
		airports, perAirport int
	}{
		{"selective", 6, 2},
		{"bulk", 30, 5},
	} {
		b.Run("section4/"+size.name+"/prepared", func(b *testing.B) {
			db, consts := newFlightDB(b, size.airports, size.perAirport)
			p, err := db.Prepare("cnx(?, ?, D, AT)", Options{})
			if err != nil {
				b.Fatal(err)
			}
			n := len(consts) / 2
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % n
				if _, err := p.Run(consts[2*k], consts[2*k+1]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("section4/"+size.name+"/cold", func(b *testing.B) {
			db, consts := newFlightDB(b, size.airports, size.perAirport)
			n := len(consts) / 2
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % n
				p, err := db.Prepare("cnx(?, ?, D, AT)", Options{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.Run(consts[2*k], consts[2*k+1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	newSGDB := func(b *testing.B) (*DB, []string) {
		b.Helper()
		db := NewDB()
		if err := db.LoadProgram(workload.SGProgram); err != nil {
			b.Fatal(err)
		}
		w := workload.SampleC(db.SymTab(), 96)
		db.SetStore(w.Store)
		var names []string
		for i := 0; i < 32; i++ {
			names = append(names, fmt.Sprintf("a%d", i+1))
		}
		return db, names
	}
	b.Run("direct/prepared", func(b *testing.B) {
		db, names := newSGDB(b)
		p, err := db.Prepare("sg(?, Y)", Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Run(names[i%len(names)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct/cold", func(b *testing.B) {
		db, names := newSGDB(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := db.Prepare("sg(?, Y)", Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Run(names[i%len(names)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The zero-allocation streaming warm path: same plan and constants
	// as direct/prepared, answers delivered to a callback instead of a
	// materialized Answer.
	b.Run("direct/stream", func(b *testing.B) {
		db, names := newSGDB(b)
		p, err := db.Prepare("sg(?, Y)", Options{})
		if err != nil {
			b.Fatal(err)
		}
		syms := make([]symtab.Sym, len(names))
		for i, n := range names {
			syms[i] = db.SymTab().Intern(n)
		}
		n := 0
		yield := func([]symtab.Sym) { n++ }
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.RunSymsFunc(yield, syms[i%len(syms)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Concurrent prepared runs: the same plan driven from GOMAXPROCS
	// goroutines, each with its own constant.
	b.Run("direct/parallel", func(b *testing.B) {
		db, names := newSGDB(b)
		p, err := db.Prepare("sg(?, Y)", Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := p.Run(names[i%len(names)]); err != nil {
					// b.Fatal must not run on a RunParallel worker.
					b.Error(err)
					return
				}
				i++
			}
		})
	})
}

// BenchmarkAblationDemand contrasts preconstruction (Hunt) with the
// demand-driven engine on data that is mostly irrelevant to the query
// (A1).
func BenchmarkAblationDemand(b *testing.B) {
	build := func() (*symtab.Table, *sgStore) {
		st := symtab.NewTable()
		store, src := workload.Chain(st, 64)
		for i := 0; i < 2000; i++ {
			store.Insert("edge", st.Intern(fmt.Sprintf("j%d", i)), st.Intern(fmt.Sprintf("j%d", i+1)))
		}
		return st, &sgStore{store: store, src: src}
	}
	b.Run("hunt-preconstruct", func(b *testing.B) {
		st, s := build()
		_ = st
		e := expr.MustParse("edge.edge*")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g := hunt.Build(e, s.store)
			g.Query(s.src)
		}
	})
	b.Run("chain-demand", func(b *testing.B) {
		st, s := build()
		res := parser.MustParse("tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n", st)
		sys, err := equations.Transform(res.Program)
		if err != nil {
			b.Fatal(err)
		}
		eng := chaineval.New(sys, chaineval.StoreSource{Store: s.store}, chaineval.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query("tc", s.src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

type sgStore struct {
	store *edb.Store
	src   symtab.Sym
}

// BenchmarkAblationMemo contrasts node memoization with HN recomputation
// on sample (c) (A2).
func BenchmarkAblationMemo(b *testing.B) {
	const n = 192
	b.Run("chain-memoized", func(b *testing.B) {
		sb := newSGBench(b, workload.SampleC, n)
		eng := chaineval.New(sb.sys, chaineval.StoreSource{Store: sb.w.Store}, chaineval.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query("sg", sb.w.Query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hn-recompute", func(b *testing.B) {
		sb := newSGBench(b, workload.SampleC, n)
		src := chaineval.StoreSource{Store: sb.w.Store}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hn.Evaluate(sb.shape, src, sb.w.Query, 0)
		}
	})
}

// BenchmarkAblationBindings compares direct binary-chain evaluation with
// the same query forced through the Section 4 transformation (A4): the
// transformation's virtual-relation joins add overhead but preserve the
// demand-driven behavior.
func BenchmarkAblationBindings(b *testing.B) {
	setup := func() *DB {
		db := NewDB()
		if err := db.LoadProgram(workload.SGProgram); err != nil {
			b.Fatal(err)
		}
		w := workload.SampleC(db.SymTab(), 96)
		db.SetStore(w.Store)
		return db
	}
	b.Run("direct", func(b *testing.B) {
		db := setup()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query("sg(a1, Y)"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("section4", func(b *testing.B) {
		db := setup()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryOpts("sg(a1, Y)", Options{forceSection4: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBatch contrasts the batch API with a loop of individual runs
// on the same plan and bindings. The tc pair takes the shared-graph route
// (regular equation: one interpretation graph for all 256 bindings, each
// node probed once, then one walk per binding); the sg pair takes the
// per-distinct-binding route, whose win is deduplication, and its Chain
// and QSQNet arms pin the strategy. Every arm runs its bindings in turn.
func BenchmarkBatch(b *testing.B) {
	newTCDB := func(b *testing.B) (*Prepared, [][]string) {
		b.Helper()
		db := NewDB()
		if err := db.LoadProgram("tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n"); err != nil {
			b.Fatal(err)
		}
		store, _ := workload.Chain(db.SymTab(), 256)
		db.SetStore(store)
		p, err := db.Prepare("tc(?, Y)", Options{})
		if err != nil {
			b.Fatal(err)
		}
		var argSets [][]string
		for _, s := range store.Relation("edge").Domain(0) {
			argSets = append(argSets, []string{db.Name(s)})
		}
		return p, argSets
	}
	b.Run("tc-chain/runbatch", func(b *testing.B) {
		p, argSets := newTCDB(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.RunBatch(argSets); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tc-chain/run-loop", func(b *testing.B) {
		p, argSets := newTCDB(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, args := range argSets {
				if _, err := p.Run(args...); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	newSGBatch := func(b *testing.B, opts Options) (*Prepared, [][]string) {
		b.Helper()
		db := NewDB()
		if err := db.LoadProgram(workload.SGProgram); err != nil {
			b.Fatal(err)
		}
		w := workload.SampleC(db.SymTab(), 96)
		db.SetStore(w.Store)
		p, err := db.Prepare("sg(?, Y)", opts)
		if err != nil {
			b.Fatal(err)
		}
		var argSets [][]string
		for i := 0; i < 32; i++ {
			argSets = append(argSets, []string{fmt.Sprintf("a%d", i+1)})
		}
		return p, argSets
	}
	runBatch := func(opts Options) func(*testing.B) {
		return func(b *testing.B) {
			p, argSets := newSGBatch(b, opts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.RunBatch(argSets); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("sg/runbatch", runBatch(Options{}))
	for _, strategy := range []Strategy{Chain, QSQNet} {
		b.Run("sg/runbatch/"+strategy.String(), runBatch(Options{Strategy: strategy}))
	}
	b.Run("sg/run-loop", func(b *testing.B) {
		p, argSets := newSGBatch(b, Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, args := range argSets {
				if _, err := p.Run(args...); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkParallel measures chaineval.Options.Parallelism on two shapes. On the
// largest traversal workload (Figure 7 sample (b), n=256) frontier
// levels are narrow and sharding them across the worker pool costs
// more than it buys: par=2 is slower than the sequential par=1. On
// tc(n0, Y) over a 200k-node / 800k-edge random graph a handful of
// levels hold nearly the whole graph, and par=2 and par=-1 (GOMAXPROCS)
// beat par=1 on a 2-core host. Both cases are kept so the knob's
// evidence is checked in either way.
func BenchmarkParallel(b *testing.B) {
	for _, par := range []int{1, 2, -1} {
		b.Run(fmt.Sprintf("fig7-sampleB-256/par=%d", par), func(b *testing.B) {
			sb := newSGBench(b, workload.SampleB, 256)
			eng := chaineval.New(sb.sys, chaineval.StoreSource{Store: sb.w.Store}, chaineval.Options{Parallelism: par})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query("sg", sb.w.Query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, par := range []int{1, 2, -1} {
		b.Run(fmt.Sprintf("tc-random-200k-800k/par=%d", par), func(b *testing.B) {
			const nodes, edges = 200_000, 800_000
			st := symtab.NewTable()
			res, err := parser.Parse("tc(X, Y) :- e(X, Y).\ntc(X, Z) :- e(X, Y), tc(Y, Z).\n", st)
			if err != nil {
				b.Fatal(err)
			}
			sys, err := equations.Transform(res.Program)
			if err != nil {
				b.Fatal(err)
			}
			syms := make([]symtab.Sym, nodes)
			for i := range syms {
				syms[i] = st.Intern(fmt.Sprintf("n%d", i))
			}
			rng := rand.New(rand.NewSource(1))
			pairs := make([]symtab.Sym, 2*edges)
			for i := range pairs {
				pairs[i] = syms[rng.Intn(nodes)]
			}
			store := edb.NewStore(st)
			if _, err := store.BuildBinary("e", pairs); err != nil {
				b.Fatal(err)
			}
			eng := chaineval.New(sys, chaineval.StoreSource{Store: store}, chaineval.Options{Parallelism: par})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query("tc", syms[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPreparedAssertThenRun measures the live-update tentpole: the
// cost of Prepared.Run immediately after a single fact mutation. The
// /refresh variant is the two-epoch path — the plan absorbs the change
// by refreshing its relation pointers and the CSR absorbs it as an
// incremental overlay — while /recompile forces the pre-live-update
// behavior (every mutation invalidates the compiled world) by bumping
// the rule epoch, so the Run pays plan recompilation plus a cold
// adjacency rebuild. The acceptance criterion is refresh being >= 5x
// cheaper. The query constant sits near the end of a long chain so the
// traversal itself is a few nodes: the measured gap is the invalidation
// story, not the query.
func BenchmarkPreparedAssertThenRun(b *testing.B) {
	const chain = 4096
	newChainDB := func(b *testing.B) (*DB, *Prepared) {
		b.Helper()
		db := NewDB()
		if err := db.LoadProgram(`
tc(X, Y) :- e(X, Y).
tc(X, Z) :- e(X, Y), tc(Y, Z).
`); err != nil {
			b.Fatal(err)
		}
		d := &Delta{}
		for i := 0; i < chain; i++ {
			d.Assert("e", fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1))
		}
		db.Apply(d)
		p, err := db.Prepare("tc(?, Y)", Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Run(fmt.Sprintf("v%d", chain-6)); err != nil {
			b.Fatal(err)
		}
		return db, p
	}
	bound := fmt.Sprintf("v%d", chain-6)
	b.Run("refresh", func(b *testing.B) {
		db, p := newChainDB(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				db.Assert("e", "m0", "m1")
			} else {
				db.Retract("e", "m0", "m1")
			}
			if _, err := p.Run(bound); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recompile", func(b *testing.B) {
		db, p := newChainDB(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				db.Assert("e", "m0", "m1")
			} else {
				db.Retract("e", "m0", "m1")
			}
			db.Invalidate()
			if _, err := p.Run(bound); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The retract-only churn shape: toggle a mid-chain edge so each
	// mutation changes the answer set, still on the refresh path.
	b.Run("retract-assert", func(b *testing.B) {
		db, p := newChainDB(b)
		cut0, cut1 := fmt.Sprintf("v%d", chain-4), fmt.Sprintf("v%d", chain-3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				db.Retract("e", cut0, cut1)
			} else {
				db.Assert("e", cut0, cut1)
			}
			if _, err := p.Run(bound); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMaterializedApply pins the claim of the live-view machinery:
// absorbing a small delta into a materialized prepared query
// (differential maintenance inside the mutation) must beat re-running
// the prepared query by an order of magnitude. Both legs apply the same
// edge toggles against the same tree; "recompute" re-runs the plan
// after every mutation, "maintained" lets the view absorb the delta.
// tc is regular, so its views are the chain engine's kept visited sets.
// "whole-cone" is the other end: an edge above the root is retracted and
// re-asserted in turn, so one op overdeletes the whole view (the
// interpretation graph of the tree, two nodes per term, about 16,400)
// and the next visits it again, and each renders a change set of all
// 8,191 rows. "dag" is DRed's rederivation: on a 24×24 grid (edges right
// and down) an interior edge is retracted and re-asserted in turn, and
// every node it reaches has another predecessor, so the view never
// changes. "nonregular" keeps a number for the views that stay the
// magic-sets fixpoint under ivm: sg over a ladder of 32 rungs whose one
// flat edge, at the top, is retracted and re-asserted in turn, so the
// answer comes and goes with the 33 sg facts below it.
func BenchmarkMaterializedApply(b *testing.B) {
	// A complete binary tree keeps the reachability cone of a fringe
	// mutation shallow (one root path), so the delta's true cost is
	// O(depth) while a recompute pays for the whole closure.
	const depth = 13 // 2^13-1 = 8191 nodes
	build := func(b *testing.B) (*DB, *Prepared) {
		b.Helper()
		db := NewDB()
		if err := db.LoadProgram(`
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
`); err != nil {
			b.Fatal(err)
		}
		d := &Delta{}
		nodes := 1<<depth - 1
		for i := 1; 2*i+1 <= nodes; i++ {
			d.Assert("edge", fmt.Sprintf("t%d", i), fmt.Sprintf("t%d", 2*i))
			d.Assert("edge", fmt.Sprintf("t%d", i), fmt.Sprintf("t%d", 2*i+1))
		}
		db.Apply(d)
		p, err := db.Prepare("tc(?, Y)", Options{})
		if err != nil {
			b.Fatal(err)
		}
		return db, p
	}
	fringe := fmt.Sprintf("t%d", 1<<depth-1) // deepest rightmost leaf
	toggle := func(db *DB, i int) {
		leaf := fmt.Sprintf("leaf%d", i/2)
		if i%2 == 0 {
			db.Assert("edge", fringe, leaf)
		} else {
			db.Retract("edge", fringe, leaf)
		}
	}
	b.Run("maintained", func(b *testing.B) {
		db, p := build(b)
		m, err := p.Materialize("t1")
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			toggle(db, i)
		}
		b.StopTimer()
		if st := m.Stats(); st.Recomputed != 0 {
			b.Fatalf("maintenance fell back to recompute: %+v", st)
		}
	})
	b.Run("recompute", func(b *testing.B) {
		db, p := build(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			toggle(db, i)
			if _, err := p.Run("t1"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("whole-cone", func(b *testing.B) {
		db, p := build(b)
		db.Assert("edge", "t0", "t1")
		m, err := p.Materialize("t0")
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		rows := m.Stats().Rows
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				db.Retract("edge", "t0", "t1")
			} else {
				db.Assert("edge", "t0", "t1")
			}
		}
		b.StopTimer()
		want := rows
		if b.N%2 == 1 {
			want = 0
		}
		if st := m.Stats(); st.Recomputed != 0 || st.Rows != want || rows != 1<<depth-1 {
			b.Fatalf("after %d toggles of the root edge: %+v, want %d of %d rows and no recompute", b.N, st, want, rows)
		}
	})
	b.Run("dag", func(b *testing.B) {
		const side = 24
		db := NewDB()
		d := &Delta{}
		for i := range side {
			for j := range side {
				if i+1 < side {
					d.Assert("edge", fmt.Sprintf("g%d_%d", i, j), fmt.Sprintf("g%d_%d", i+1, j))
				}
				if j+1 < side {
					d.Assert("edge", fmt.Sprintf("g%d_%d", i, j), fmt.Sprintf("g%d_%d", i, j+1))
				}
			}
		}
		if err := db.LoadProgram("tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n"); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Apply(d); err != nil {
			b.Fatal(err)
		}
		p, err := db.Prepare("tc(?, Y)", Options{})
		if err != nil {
			b.Fatal(err)
		}
		m, err := p.Materialize("g0_0")
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				db.Retract("edge", "g12_12", "g13_12")
			} else {
				db.Assert("edge", "g12_12", "g13_12")
			}
		}
		b.StopTimer()
		if st := m.Stats(); st.Recomputed != 0 || st.Rows != side*side-1 {
			b.Fatalf("after %d toggles of an interior edge: %+v, want %d rows and no recompute", b.N, st, side*side-1)
		}
	})
	b.Run("nonregular", func(b *testing.B) {
		const rungs = 32
		db := NewDB()
		if err := db.LoadProgram("sg(X, Y) :- flat(X, Y).\nsg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).\n"); err != nil {
			b.Fatal(err)
		}
		d := &Delta{}
		for i := range rungs {
			d.Assert("up", fmt.Sprintf("a%d", i), fmt.Sprintf("a%d", i+1))
			d.Assert("down", fmt.Sprintf("b%d", i+1), fmt.Sprintf("b%d", i))
		}
		top := []string{fmt.Sprintf("a%d", rungs), fmt.Sprintf("b%d", rungs)}
		d.Assert("flat", top...)
		if _, err := db.Apply(d); err != nil {
			b.Fatal(err)
		}
		p, err := db.Prepare("sg(?, Y)", Options{})
		if err != nil {
			b.Fatal(err)
		}
		m, err := p.Materialize("a0")
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				db.Retract("flat", top...)
			} else {
				db.Assert("flat", top...)
			}
		}
		b.StopTimer()
		want := 1 - b.N%2
		if st := m.Stats(); st.Recomputed != 0 || st.Rows != want {
			b.Fatalf("after %d toggles of the top flat edge: %+v, want %d rows and no recompute", b.N, st, want)
		}
	})
}

// wideAnswerDBs builds the benchmark's wide-answer input twice: a
// complete binary tree of the given depth (nodes t1..t(2^depth-1), edges
// in shuffled order, as the CSV files of bench/ are) loaded by IngestCSV,
// and the same facts opened from the snapshot written from that DB. In
// the first, symbols are numbered in CSV order; in the second, in name
// order.
func wideAnswerDBs(tb testing.TB, depth int) (ingested, snapshot *DB) {
	tb.Helper()
	const rules = "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\n"
	n := 1<<depth - 1
	rng := rand.New(rand.NewSource(1))
	var csv bytes.Buffer
	for _, i := range rng.Perm(n - 1) {
		fmt.Fprintf(&csv, "t%d,t%d\n", (i+2)/2, i+2)
	}
	ingested = NewDB()
	if _, err := ingested.IngestCSV(&csv, "e"); err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "tree.snap")
	if err := ingested.WriteSnapshot(path); err != nil {
		tb.Fatal(err)
	}
	snapshot, err := OpenSnapshot(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { snapshot.Close() })
	for _, db := range []*DB{ingested, snapshot} {
		if err := db.LoadProgram(rules); err != nil {
			tb.Fatal(err)
		}
	}
	return ingested, snapshot
}

// BenchmarkWideAnswer is the layer evidence for name-ordered snapshot
// symbol ids: tc(t4, Y) on the 16,383-node tree (4,094 rows), Run on a DB
// filled by IngestCSV against one opened from the snapshot written from
// it. The traversal is the same; the second renders rows that are already
// in name order.
func BenchmarkWideAnswer(b *testing.B) {
	ingested, snapshot := wideAnswerDBs(b, 14)
	for _, c := range []struct {
		name string
		db   *DB
	}{{"ingested", ingested}, {"snapshot", snapshot}} {
		b.Run(c.name, func(b *testing.B) {
			p, err := c.db.Prepare("tc(?, Y)", Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				ans, err := p.Run("t4")
				if err != nil || len(ans.Rows) != 4094 {
					b.Fatalf("%d rows, err %v", len(ans.Rows), err)
				}
			}
		})
	}
}

// BenchmarkGeneralJoin times the routes of bench's general-join workload
// on its shapes (generalJoinProgram): the nonlinear tcn(n20, Y) on the
// chain traversal of tcn = e.e* (what the optimizer picks) and on the QSQ
// net (what it picked before Lemma 1 solved the closure), the seminaive
// fixpoint over sg's slice answering sg(p100, Y), and the same fixpoint
// over every rule of the database, which is what a pinned seminaive ran
// before the route took the slice and what bench's trace still measures.
func BenchmarkGeneralJoin(b *testing.B) {
	db := generalJoinDB(b, true)
	for _, c := range []struct {
		name, query, arg string
		s                Strategy
	}{
		{"chain", "tcn(?, Y)", "n20", Chain},
		{"qsqnet", "tcn(?, Y)", "n20", QSQNet},
		{"seminaive", "sg(?, Y)", "p100", Seminaive},
	} {
		b.Run(c.name, func(b *testing.B) {
			p := mustPrepare(b, db, c.query, c.s)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ans, err := p.Run(c.arg)
				if err != nil || ans.Stats.Strategy != c.s {
					b.Fatalf("%v ran as %v: %v", c.s, ans.Stats.Strategy, err)
				}
				b.ReportMetric(float64(ans.Stats.Firings), "firings/op")
				b.ReportMetric(float64(ans.Stats.Lookups), "lookups/op")
			}
		})
	}
	b.Run("seminaive-whole-program", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, stats, err := bottomup.SeminaiveCtx(context.Background(), db.Program(), db.Store())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(stats.Firings), "firings/op")
		}
	})
}

// BenchmarkFixpoint is a warm pinned seminaive sg(p100, Y) on
// general-join: the run after the first reuses its pooled derived tables
// and their indexes and reads its 9 rows through the bound index, so
// what remains per op is the 1,689 firings. Run it with -benchmem.
func BenchmarkFixpoint(b *testing.B) {
	p := mustPrepare(b, generalJoinDB(b, true), "sg(?, Y)", Seminaive)
	if _, err := p.Run("p100"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := p.Run("p100")
		if err != nil || len(ans.Rows) != 9 || ans.Stats.Firings != 1689 {
			b.Fatalf("%d rows, %d firings, err %v; want 9 rows, 1,689 firings", len(ans.Rows), ans.Stats.Firings, err)
		}
	}
}
