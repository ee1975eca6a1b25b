package chaineval

import (
	"fmt"
	"testing"

	"chainlog/internal/edb"
	"chainlog/internal/equations"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

// TestChainQueryAllocs pins what a warm Engine.Query allocates on the
// paper's samples: the Result and its copy of the answers, and nothing
// that grows with the interpretation graph — sample (b) at n = 256, the
// 16,768-node case, costs the same two objects as a chain. These are the
// cases the Fig7, Table1 and Theorem3 benchmarks time, so an allocation
// on the traversal's hot path fails here and not in a benchmark diff.
func TestChainQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	check := func(name, prog, pred string, store *edb.Store, a symtab.Sym) {
		t.Run(name, func(t *testing.T) {
			sys, err := equations.Transform(parser.MustParse(prog, store.SymTab()).Program)
			if err != nil {
				t.Fatal(err)
			}
			eng := New(sys, StoreSource{Store: store}, Options{})
			run := func() {
				if _, err := eng.Query(pred, a); err != nil {
					t.Error(err)
				}
			}
			run() // warm the scratch pool and the CSR adjacency
			if got := testing.AllocsPerRun(20, run); got != 2 {
				t.Errorf("warm Query allocates %.1f objects, want exactly 2", got)
			}
		})
	}
	for name, gen := range map[string]func(*symtab.Table, int) *workload.SG{
		"sampleA": workload.SampleA, "sampleB": workload.SampleB, "sampleC": workload.SampleC,
	} {
		for _, n := range []int{64, 256} {
			w := gen(symtab.NewTable(), n)
			check(fmt.Sprintf("%s/n=%d", name, n), workload.SGProgram, "sg", w.Store, w.Query)
		}
	}
	store, src := workload.Chain(symtab.NewTable(), 512)
	check("tc/chain-n=512", "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n", "tc", store, src)
}
