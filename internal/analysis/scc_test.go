package analysis

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// sccOf runs SCC over an adjacency list.
func sccOf(adj [][]int32, emit func([]int32)) []int32 {
	return SCC(len(adj), func(v int) []int32 { return adj[v] }, emit)
}

func TestSCCSimpleCycle(t *testing.T) {
	comp := sccOf([][]int32{{1}, {2}, {0, 3}, nil}, nil)
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

// A predicate is recursive when its dependency component has more than
// one member or it depends on itself directly.
func TestSCCSelfLoopAndInCycle(t *testing.T) {
	info := Analyze(parse(t, `
a(X, Y) :- a(X, Y).
b(X, Y) :- c(X, Y).
`))
	if !info.Recursive("a") {
		t.Fatal("self-loop predicate not marked recursive")
	}
	if info.Recursive("b") || info.Recursive("c") {
		t.Fatal("acyclic predicates marked recursive")
	}
}

func TestPredicateGroups(t *testing.T) {
	info := Analyze(parse(t, `
p(X, Y) :- q(X, Y).
q(X, Y) :- p(X, Y).
q(X, Y) :- r(X, Y).
`))
	if len(info.Groups) != 2 {
		t.Fatalf("groups = %v", info.Groups)
	}
	if info.Comp["p"] != info.Comp["q"] {
		t.Fatal("p and q should share a component")
	}
	if info.Comp["r"] == info.Comp["p"] {
		t.Fatal("r merged with p/q")
	}
	if g := info.Groups[info.Comp["p"]]; len(g) != 2 || g[0] != "p" || g[1] != "q" {
		t.Fatalf("p's group = %v, want [p q]", g)
	}
	if _, ok := info.Comp["zzz"]; ok {
		t.Fatal("a component for a predicate the program never names")
	}
}

// Property: comp indexes components in reverse topological order — for
// every edge u→v across components, comp[v] < comp[u] — and emit lists
// every node once, a component per call, in that order. Checked on random
// graphs against a brute-force SCC (pairwise reachability).
func TestSCCAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 1
		adj := make([][]int32, n)
		for m := rng.Intn(3 * n); m > 0; m-- {
			u := rng.Intn(n)
			adj[u] = append(adj[u], int32(rng.Intn(n)))
		}
		// at[v] is the call of emit that listed v.
		at := make([]int32, n)
		calls, listed := int32(0), 0
		comp := sccOf(adj, func(members []int32) {
			for _, v := range members {
				at[v] = calls
			}
			calls++
			listed += len(members)
		})
		if listed != n {
			return false
		}
		for u := range n {
			if at[u] != comp[u] {
				return false
			}
		}

		// Brute force: u,v in same SCC iff u reaches v and v reaches u.
		reach := make([][]bool, n)
		for u := range n {
			reach[u] = reachable(adj, u)
		}
		for u := range n {
			for v := range n {
				same := reach[u][v] && reach[v][u]
				if same != (comp[u] == comp[v]) {
					return false
				}
			}
		}
		// Reverse topological numbering.
		for u := range n {
			for _, v := range adj[u] {
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

// reachable is the brute-force oracle: the nodes reachable from start,
// start included.
func reachable(adj [][]int32, start int) []bool {
	seen := make([]bool, len(adj))
	stack := []int{start}
	seen[start] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, int(w))
			}
		}
	}
	return seen
}
