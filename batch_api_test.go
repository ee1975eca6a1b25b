package chainlog

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

// batchNames returns the bound constants the SG batch tests run over,
// including a duplicate to exercise binding deduplication.
func batchNames() [][]string {
	var argSets [][]string
	for i := 1; i <= 24; i++ {
		argSets = append(argSets, []string{fmt.Sprintf("a%d", i)})
	}
	return append(argSets, []string{"a1"})
}

func newBatchSGDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB()
	if err := db.LoadProgram(workload.SGProgram); err != nil {
		t.Fatal(err)
	}
	w := workload.SampleC(db.SymTab(), 64)
	db.SetStore(w.Store)
	return db
}

// TestRunBatchMatchesRun pins RunBatch to N individual Runs: same rows
// per binding, in input order, for the direct bf plan, the direct fb
// plan, the Section 4 plan, and a strategy that takes the generic
// per-vector route. Each subtest runs them under one processor count,
// which is what the optimizer's sharding verdict and a sharded chain
// run read: parallelism=-1 is one processor (sequential), 0 the
// runtime's own count and 4 four processors.
func TestRunBatchMatchesRun(t *testing.T) {
	for _, par := range []int{0, 4, -1} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			switch {
			case par < 0:
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			case par > 0:
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
			}
			db := newBatchSGDB(t)
			check := func(t *testing.T, query string, argSets [][]string, o Options) {
				t.Helper()
				p, err := db.Prepare(query, o)
				if err != nil {
					t.Fatal(err)
				}
				batch, err := p.RunBatch(argSets)
				if err != nil {
					t.Fatal(err)
				}
				if len(batch) != len(argSets) {
					t.Fatalf("got %d answers for %d arg sets", len(batch), len(argSets))
				}
				for i, args := range argSets {
					want, err := p.Run(args...)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(batch[i].Rows, want.Rows) {
						t.Fatalf("%s%v: batch rows %v, run rows %v", query, args, batch[i].Rows, want.Rows)
					}
					if batch[i].True != want.True {
						t.Fatalf("%s%v: batch True %v, run True %v", query, args, batch[i].True, want.True)
					}
				}
			}

			check(t, "sg(?, Y)", batchNames(), Options{})
			check(t, "sg(X, ?)", batchNames(), Options{})
			// Fully bound: Section 4 transformation route.
			check(t, "sg(?, ?)", [][]string{{"a1", "a2"}, {"a1", "a1"}, {"a3", "a7"}}, Options{})
			// Generic per-vector route.
			check(t, "sg(?, Y)", batchNames()[:6], Options{Strategy: Seminaive})
			// Extensional predicate: the base lookup route.
			check(t, "flat(?, Y)", batchNames(), Options{})
		})
	}
}

// TestRunBatchStats pins whose work a batch answer's Stats describe. A
// bound chain batch is one engine call, so every answer carries the
// batch's total: at least what the costliest binding reads alone and at
// most what all of them read one by one. Every other route answers a
// vector by itself, so its Stats are those of a Run of that vector.
func TestRunBatchStats(t *testing.T) {
	db := newBatchSGDB(t)
	argSets := batchNames()

	chain, err := db.Prepare("sg(?, Y)", Options{Strategy: Chain})
	if err != nil {
		t.Fatal(err)
	}
	if got := chain.Plan().Strategy; got != Chain {
		t.Fatalf("pinned chain runs %v", got)
	}
	batch, err := chain.RunBatch(argSets)
	if err != nil {
		t.Fatal(err)
	}
	var most, sum int64
	seen := map[string]bool{}
	for i, args := range argSets {
		if batch[i].Stats != batch[0].Stats {
			t.Fatalf("chain %v: Stats %+v, first answer's %+v; want the batch's total on every answer", args, batch[i].Stats, batch[0].Stats)
		}
		one, err := chain.Run(args...)
		if err != nil {
			t.Fatal(err)
		}
		most = max(most, one.Stats.FactsConsulted)
		if !seen[args[0]] {
			seen[args[0]] = true
			sum += one.Stats.FactsConsulted
		}
	}
	if total := batch[0].Stats.FactsConsulted; total < most || total > sum {
		t.Fatalf("chain batch consulted %d facts; want between %d (costliest binding) and %d (all of them alone)", total, most, sum)
	}

	semi, err := db.Prepare("sg(?, Y)", Options{Strategy: Seminaive})
	if err != nil {
		t.Fatal(err)
	}
	argSets = argSets[:6]
	if batch, err = semi.RunBatch(argSets); err != nil {
		t.Fatal(err)
	}
	for i, args := range argSets {
		one, err := semi.Run(args...)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Stats != one.Stats {
			t.Fatalf("seminaive %v: batch Stats %+v, Run Stats %+v", args, batch[i].Stats, one.Stats)
		}
	}
}

// TestRunBatchSection4 exercises the batch route through the n-ary
// Section 4 transformation on the flight workload, where start terms are
// interned tuples.
func TestRunBatchSection4(t *testing.T) {
	db := NewDB()
	if err := db.LoadProgram(workload.FlightProgram); err != nil {
		t.Fatal(err)
	}
	f := workload.FlightDB(db.SymTab(), 10, 3, 1)
	db.SetStore(f.Store)
	p, err := db.Prepare("cnx(?, ?, D, AT)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	rel := f.Store.Relation("flight")
	var argSets [][]string
	for i := 0; i < rel.Len() && len(argSets) < 12; i++ {
		tup := rel.Tuple(i)
		argSets = append(argSets, []string{db.Name(tup[0]), db.Name(tup[1])})
	}
	batch, err := p.RunBatch(argSets)
	if err != nil {
		t.Fatal(err)
	}
	for i, args := range argSets {
		want, err := p.Run(args...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i].Rows, want.Rows) {
			t.Fatalf("cnx%v: batch %v, run %v", args, batch[i].Rows, want.Rows)
		}
	}
}

// TestRunBatchValidation pins the error paths: wrong parameter counts
// fail the whole batch up front, and an empty batch returns an empty
// answer slice.
func TestRunBatchValidation(t *testing.T) {
	db := newBatchSGDB(t)
	p, err := db.Prepare("sg(?, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunBatch([][]string{{"a1"}, {"a2", "extra"}}); err == nil {
		t.Fatal("arity mismatch not rejected")
	}
	out, err := p.RunBatch(nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: out %v err %v", out, err)
	}
}

// TestRunBatchConcurrent drives one prepared plan with overlapping
// RunBatch and Run calls from many goroutines: the documented
// concurrency contract (safe concurrent use of a Prepared) must extend
// to the batch route. Primarily meaningful under -race.
func TestRunBatchConcurrent(t *testing.T) {
	db := newBatchSGDB(t)
	p, err := db.Prepare("sg(?, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	argSets := batchNames()
	want, err := p.RunBatch(argSets)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 5; i++ {
				if g%4 == 1 {
					// Streamed runs share pooled binding sets and answers.
					k := i % len(argSets)
					a, _ := db.SymTab().Lookup(argSets[k][0])
					var got [][]string
					if err := p.RunSymsFunc(func(row []symtab.Sym) { got = append(got, []string{db.Name(row[0])}) }, a); err != nil {
						done <- err
						return
					}
					slices.SortFunc(got, func(x, y []string) int { return strings.Compare(x[0], y[0]) })
					if !reflect.DeepEqual(got, want[k].Rows) && len(got)+len(want[k].Rows) > 0 {
						done <- fmt.Errorf("binding %d: streamed rows %v, want %v", k, got, want[k].Rows)
						return
					}
				} else if g%2 == 0 {
					got, err := p.RunBatch(argSets)
					if err != nil {
						done <- err
						return
					}
					for k := range got {
						if !reflect.DeepEqual(got[k].Rows, want[k].Rows) {
							done <- fmt.Errorf("binding %d: rows diverged under concurrency", k)
							return
						}
					}
				} else {
					if _, err := p.Run(argSets[i%len(argSets)]...); err != nil {
						done <- err
						return
					}
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
