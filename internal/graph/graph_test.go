package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func buildGraph(n int, edges [][2]int) *Graph {
	g := New(n)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func TestSCCSimpleCycle(t *testing.T) {
	g := buildGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	comp, count := g.SCC()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatalf("cycle nodes split: %v", comp)
	}
	if comp[3] == comp[0] {
		t.Fatal("node 3 merged into cycle")
	}
	// Tarjan: inter-component edge u→v implies comp[v] < comp[u].
	if comp[3] >= comp[0] {
		t.Fatalf("reverse-topological numbering violated: %v", comp)
	}
}

func TestSCCSelfLoopAndInCycle(t *testing.T) {
	g := buildGraph(3, [][2]int{{0, 0}, {1, 2}})
	in := g.InCycle()
	if !in[0] {
		t.Fatal("self-loop node not marked recursive")
	}
	if in[1] || in[2] {
		t.Fatal("acyclic nodes marked recursive")
	}
}

func TestCondense(t *testing.T) {
	g := buildGraph(4, [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 2}})
	dag, comp := g.Condense()
	if dag.Len() != 2 {
		t.Fatalf("condensation has %d nodes", dag.Len())
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] {
		t.Fatalf("bad comp mapping %v", comp)
	}
	if !dag.HasEdge(comp[0], comp[2]) {
		t.Fatal("missing condensation edge")
	}
	if dag.HasEdge(comp[2], comp[0]) {
		t.Fatal("spurious reverse condensation edge")
	}
}

func TestReachable(t *testing.T) {
	g := buildGraph(5, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	r := g.Reachable(0)
	want := []bool{true, true, true, false, false}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Reachable = %v", r)
		}
	}
}

// Property: comp indexes components in reverse topological order — for
// every edge u→v across components, comp[v] < comp[u]. Checked on random
// graphs against a brute-force SCC (pairwise reachability).
func TestSCCAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 1
		g := New(n)
		m := rng.Intn(3 * n)
		for i := 0; i < m; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		comp, _ := g.SCC()

		// Brute force: u,v in same SCC iff u reaches v and v reaches u.
		reach := make([][]bool, n)
		for u := 0; u < n; u++ {
			reach[u] = g.Reachable(u)
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				same := reach[u][v] && reach[v][u]
				if same != (comp[u] == comp[v]) {
					return false
				}
			}
		}
		// Reverse topological numbering.
		for u := 0; u < n; u++ {
			for _, v := range g.Succ(u) {
				if comp[u] != comp[v] && comp[v] >= comp[u] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNamedGraph(t *testing.T) {
	n := NewNamed()
	n.AddEdge("p", "q")
	n.AddEdge("q", "p")
	n.AddEdge("q", "r")
	groups, byName := n.SCCNames()
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	if byName["p"] != byName["q"] {
		t.Fatal("p and q should share a component")
	}
	if byName["r"] == byName["p"] {
		t.Fatal("r merged with p/q")
	}
	if _, ok := n.ID("zzz"); ok {
		t.Fatal("ID knows a name nobody interned")
	}
	if id, ok := n.ID("p"); !ok || n.Name(id) != "p" {
		t.Fatal("ID/Name round trip failed")
	}
}
