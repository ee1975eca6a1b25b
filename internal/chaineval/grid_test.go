package chaineval

import (
	"testing"

	"chainlog/internal/equations"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

// Grid reachability: exponentially many paths, but the memoized traversal
// visits each (state, node) once — node count stays linear in the grid
// size, and every cell except the source is an answer.
func TestGridReachabilityLinearNodes(t *testing.T) {
	st := symtab.NewTable()
	const w, h = 20, 20
	store, src := workload.Grid(st, w, h)
	res := parser.MustParse(`
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
`, st)
	sys, err := equations.Transform(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(sys, StoreSource{Store: store}, Options{})
	r, err := eng.Query("tc", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Answers) != w*h-1 {
		t.Fatalf("answers = %d, want %d", len(r.Answers), w*h-1)
	}
	if r.Iterations != 1 {
		t.Fatalf("iterations = %d", r.Iterations)
	}
	if r.Nodes > 10*w*h {
		t.Fatalf("nodes = %d, expected O(w*h)", r.Nodes)
	}
}

// queryAll on the grid exercises the SCC condensation path at scale: a
// DAG condenses to singleton components, and reach sets cascade.
func TestGridAllPairsCount(t *testing.T) {
	st := symtab.NewTable()
	const w, h = 6, 6
	store, _ := workload.Grid(st, w, h)
	res := parser.MustParse(`
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
`, st)
	sys, err := equations.Transform(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(sys, StoreSource{Store: store}, Options{})
	domain := activeDomain(store)
	pairs, _, err := queryAll(eng, nil, "tc", domain, 0)
	if err != nil {
		t.Fatal(err)
	}
	// tc(g(x1,y1), g(x2,y2)) iff x2>=x1, y2>=y1, not equal. Count:
	// sum over all cells of (cells to the lower-right) - 1.
	want := 0
	for x1 := 0; x1 < w; x1++ {
		for y1 := 0; y1 < h; y1++ {
			want += (w-x1)*(h-y1) - 1
		}
	}
	if len(pairs) != want {
		t.Fatalf("pairs = %d, want %d", len(pairs), want)
	}
}
