package analysis

// SCC finds the strongly connected components of the digraph on nodes
// 0..n-1 whose arcs leave v for the nodes succ(v), with an iterative
// Tarjan, and returns each node's component. Components are numbered in
// the order they complete, which is reverse topological: an arc u→v
// between two components has comp[v] < comp[u]. When emit is not nil it
// is called with each component's members as the component completes,
// once comp is set for them and for every component numbered before; the
// slice is valid during the call only.
//
// Lemma 1 steps 2 and 6 classify predicates by the components of the
// dependency graph, and a batch over a regular equation condenses its
// interpretation graph (chaineval.QueryBatchCtx).
func SCC(n int, succ func(v int) []int32, emit func(members []int32)) []int32 {
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	// index is a node's DFS preorder number plus one, 0 while unvisited;
	// a visited node with no component yet is on the stack.
	index := make([]int32, n)
	low := make([]int32, n)
	var stack []int32
	type frame struct{ v, next int32 }
	var frames []frame
	var preorder, count int32
	enter := func(v int32) {
		preorder++
		index[v], low[v] = preorder, preorder
		stack = append(stack, v)
		frames = append(frames, frame{v: v})
	}
	for root := range n {
		if index[root] != 0 {
			continue
		}
		enter(int32(root))
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if arcs := succ(int(v)); int(f.next) < len(arcs) {
				w := arcs[f.next]
				f.next++
				if index[w] == 0 {
					enter(w)
				} else if comp[w] < 0 {
					low[v] = min(low[v], index[w])
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				low[p] = min(low[p], low[v])
			}
			if low[v] != index[v] {
				continue
			}
			i := len(stack) - 1
			for stack[i] != v {
				i--
			}
			for _, w := range stack[i:] {
				comp[w] = count
			}
			count++
			if emit != nil {
				emit(stack[i:])
			}
			stack = stack[:i]
		}
	}
	return comp
}
