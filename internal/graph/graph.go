// Package graph provides the directed-graph substrate used throughout the
// module: an adjacency-list digraph with iterative Tarjan strongly
// connected components, condensation and reachability.
//
// Lemma 1 steps 2 and 6 classify predicates as recursive/mutually
// recursive via SCCs of the predicate dependency graph, and the p(X,Y)
// all-pairs optimization of Section 3 condenses the interpretation graph.
package graph

import "sort"

// Graph is a digraph over dense integer node IDs 0..n-1.
type Graph struct {
	adj [][]int
}

// New returns a graph with n nodes and no edges.
func New(n int) *Graph {
	return &Graph{adj: make([][]int, n)}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.adj) }

// AddNode appends a node and returns its ID.
func (g *Graph) AddNode() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddEdge adds a directed edge u→v. Duplicate edges are allowed; analyses
// here are insensitive to multiplicity.
func (g *Graph) AddEdge(u, v int) {
	g.adj[u] = append(g.adj[u], v)
}

// Succ returns the successor list of u (aliasing internal storage).
func (g *Graph) Succ(u int) []int { return g.adj[u] }

// HasEdge reports whether u→v exists.
func (g *Graph) HasEdge(u, v int) bool {
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// SCC computes strongly connected components with an iterative Tarjan
// algorithm. It returns (comp, count) where comp[v] is the component index
// of node v; components are numbered in reverse topological order of the
// condensation (i.e. comp[u] <= comp[v] whenever v→u is an inter-component
// edge... specifically Tarjan emits components in reverse topological
// order, so an edge u→v across components implies comp[v] < comp[u]).
func (g *Graph) SCC() (comp []int, count int) {
	n := g.Len()
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0

	type frame struct {
		v  int
		ei int
	}
	var frames []frame

	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		frames = frames[:0]
		frames = append(frames, frame{v: root})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ei == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.ei < len(g.adj[v]) {
				w := g.adj[v][f.ei]
				f.ei++
				if index[w] == -1 {
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = count
					if w == v {
						break
					}
				}
				count++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	return comp, count
}

// Condense builds the condensation DAG of g: one node per SCC, with an
// edge c1→c2 whenever some u in c1 has an edge to some v in c2 (c1 != c2).
// It returns the DAG and the comp mapping.
func (g *Graph) Condense() (*Graph, []int) {
	comp, count := g.SCC()
	dag := New(count)
	seen := make(map[[2]int]bool)
	for u := range g.adj {
		for _, v := range g.adj[u] {
			cu, cv := comp[u], comp[v]
			if cu == cv {
				continue
			}
			k := [2]int{cu, cv}
			if !seen[k] {
				seen[k] = true
				dag.AddEdge(cu, cv)
			}
		}
	}
	return dag, comp
}

// InCycle reports, for each node, whether it lies on a cycle (i.e. its SCC
// has size > 1, or it has a self-loop). This is the paper's definition of
// a recursive predicate in the dependency graph.
func (g *Graph) InCycle() []bool {
	comp, count := g.SCC()
	size := make([]int, count)
	for _, c := range comp {
		size[c]++
	}
	out := make([]bool, g.Len())
	for v := range out {
		if size[comp[v]] > 1 || g.HasEdge(v, v) {
			out[v] = true
		}
	}
	return out
}

// Reachable returns the set of nodes reachable from start (including
// start) as a boolean slice.
func (g *Graph) Reachable(start int) []bool {
	seen := make([]bool, g.Len())
	stack := []int{start}
	seen[start] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// Named is a digraph over string-named nodes, a convenience wrapper used
// for predicate dependency graphs.
type Named struct {
	G     *Graph
	ids   map[string]int
	names []string
}

// NewNamed returns an empty named graph.
func NewNamed() *Named {
	return &Named{G: New(0), ids: make(map[string]int)}
}

// Node interns a name and returns its node ID.
func (n *Named) Node(name string) int {
	if id, ok := n.ids[name]; ok {
		return id
	}
	id := n.G.AddNode()
	n.ids[name] = id
	n.names = append(n.names, name)
	return id
}

// AddEdge adds an edge between named nodes, interning both.
func (n *Named) AddEdge(from, to string) {
	n.G.AddEdge(n.Node(from), n.Node(to))
}

// Name returns the name for a node ID.
func (n *Named) Name(id int) string { return n.names[id] }

// ID returns the node ID of name and whether it exists.
func (n *Named) ID(name string) (int, bool) {
	id, ok := n.ids[name]
	return id, ok
}

// SCCNames returns the strongly connected components as sorted name
// slices, and a map from name to component index.
func (n *Named) SCCNames() ([][]string, map[string]int) {
	comp, count := n.G.SCC()
	groups := make([][]string, count)
	byName := make(map[string]int, len(n.names))
	for id, c := range comp {
		groups[c] = append(groups[c], n.names[id])
		byName[n.names[id]] = c
	}
	for _, g := range groups {
		sort.Strings(g)
	}
	return groups, byName
}
