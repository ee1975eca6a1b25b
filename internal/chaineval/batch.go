// Batch evaluation: many bound constants against one compiled plan, with
// visited state shared across bindings where the equation system allows.
//
// For regular equations (no derived-predicate transitions, so EM never
// expands) the whole batch is evaluated as one traversal: the
// interpretation graph is built over every source at once, condensed
// with Tarjan's algorithm, and final-state term sets propagate over the
// condensation in reverse topological order — subgraphs reachable from
// several bindings are traversed exactly once instead of once per
// binding. An all-pairs query (QueryAll) is a batch over the domain.
//
// Non-regular equations expand EM per binding, so their traversals
// cannot share a graph; the batch deduplicates identical bindings and
// evaluates the distinct ones, fanned out across Options.Parallelism
// workers (each run on its own pooled scratch).
package chaineval

import (
	"cmp"
	"context"
	"math/bits"
	"slices"
	"sync/atomic"

	"chainlog/internal/automaton"
	"chainlog/internal/graph"
	"chainlog/internal/symtab"
)

// QueryBatch evaluates p(a, Y) for every a in as and returns one sorted
// answer set per binding, in input order, plus aggregate statistics for
// the whole batch. Duplicate bindings are evaluated once; their entries
// may alias the same answer slice, so callers must treat the returned
// slices as read-only.
func (e *Engine) QueryBatch(pred string, as []symtab.Sym) ([][]symtab.Sym, *Result, error) {
	return e.QueryBatchCtx(nil, pred, as)
}

// QueryBatchCtx is QueryBatch under a context; see QueryCtx. It sends a
// regular equation down the shared-traversal route and evaluates the
// distinct bindings of any other one by themselves.
func (e *Engine) QueryBatchCtx(ctx context.Context, pred string, as []symtab.Sym) ([][]symtab.Sym, *Result, error) {
	c, err := e.compiled(pred)
	if err != nil {
		return nil, nil, err
	}
	if len(as) == 0 {
		return nil, &Result{Converged: true}, nil
	}
	if c.regular {
		return e.batchRegular(ctx, c.m, as)
	}

	// Deduplicate bindings: non-regular traversals cannot share a graph,
	// but identical bindings share one run.
	distinct := make([]symtab.Sym, 0, len(as))
	first := make(map[symtab.Sym]int, len(as))
	for _, a := range as {
		if _, ok := first[a]; !ok {
			first[a] = len(distinct)
			distinct = append(distinct, a)
		}
	}
	results := make([]*Result, len(distinct))
	errs := make([]error, len(distinct))
	if W := min(e.traversalWorkers(), len(distinct)); W > 1 {
		// The batch itself saturates W workers, so each binding's
		// traversal runs sequentially inside — nested level-sharding
		// would oversubscribe the host W×W.
		var cursor atomic.Int64
		FanOut(W, func(int) {
			for {
				k := int(cursor.Add(1)) - 1
				if k >= len(distinct) {
					return
				}
				results[k], errs[k] = e.run(ctx, pred, distinct[k], 1)
			}
		})
	} else {
		for k := range distinct {
			results[k], errs[k] = e.run(ctx, pred, distinct[k], e.traversalWorkers())
		}
	}

	agg := &Result{Converged: true}
	for k := range distinct {
		if errs[k] != nil {
			return nil, nil, errs[k]
		}
		r := results[k]
		agg.Nodes += r.Nodes
		agg.Expansions += r.Expansions
		agg.Lookups += r.Lookups
		agg.Retrieved += r.Retrieved
		agg.Iterations = max(agg.Iterations, r.Iterations)
		agg.Converged = agg.Converged && r.Converged
	}
	answers := make([][]symtab.Sym, len(as))
	for i, a := range as {
		answers[i] = results[first[a]].Answers
	}
	return answers, agg, nil
}

// QueryAll evaluates p(X, Y) for every source constant in domain,
// returning sorted pairs: it is QueryBatch over the domain, so a regular
// equation is one shared traversal condensed with Tarjan's algorithm.
func (e *Engine) QueryAll(pred string, domain []symtab.Sym) ([][2]symtab.Sym, *Result, error) {
	return e.QueryAllCtx(nil, pred, domain)
}

// QueryAllCtx is QueryAll under a context; see QueryCtx.
func (e *Engine) QueryAllCtx(ctx context.Context, pred string, domain []symtab.Sym) ([][2]symtab.Sym, *Result, error) {
	answers, res, err := e.QueryBatchCtx(ctx, pred, domain)
	if err != nil {
		return nil, nil, err
	}
	var pairs [][2]symtab.Sym
	for i, a := range domain {
		for _, v := range answers[i] {
			pairs = append(pairs, [2]symtab.Sym{a, v})
		}
	}
	slices.SortFunc(pairs, func(a, b [2]symtab.Sym) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return pairs, res, nil
}

// batchRegular evaluates a binding set over a regular equation as one
// shared traversal: interpretation graph over all sources, Tarjan
// condensation, and final-state term sets propagated bottom-up, exactly
// once per strongly connected component (the optimization the paper
// attributes to [19, 21]).
//
// Node interning uses dense per-state id pages when the Sym domain is
// small enough, and the reachable-term sets propagate as bitsets with
// word-level unions when their total size is affordable; both fall back
// to the map representation otherwise. MaxNodes is enforced as nodes are
// interned, so an oversized graph fails before it is built, not after.
func (e *Engine) batchRegular(ctx context.Context, m *automaton.NFA, sources []symtab.Sym) ([][]symtab.Sym, *Result, error) {
	res := &Result{Iterations: 1, Converged: true}
	sc := acquireScratch()
	defer releaseScratch(sc)
	sc.rels = e.rels
	sc.resetCounts(len(sc.rels))
	defer func() { res.Lookups, res.Retrieved = sc.flushCounts() }()
	sc.cn = canceler{ctx: ctx}
	cn := &sc.cn
	bound, sparse := e.visitedMode()

	// allPairsDenseLimit bounds the per-page id memory, and the
	// states × bound product caps the total (1<<24 int32s = 64 MiB):
	// one int32 page per visited automaton state.
	const allPairsDenseLimit = 1 << 19

	var nodes []node
	g := graph.New(0)
	var intern func(n node) (int, bool)
	if sparse || bound > allPairsDenseLimit || m.NumStates()*bound > 1<<24 {
		ids := make(map[node]int32)
		intern = func(n node) (int, bool) {
			if id, ok := ids[n]; ok {
				return int(id), false
			}
			id := g.AddNode()
			ids[n] = int32(id)
			nodes = append(nodes, n)
			return id, true
		}
	} else {
		pages := make([][]int32, m.NumStates())
		intern = func(n node) (int, bool) {
			p := pages[n.q]
			if p == nil {
				p = make([]int32, max(bound, int(n.u)+1))
				for i := range p {
					p[i] = -1
				}
				pages[n.q] = p
			} else if int(n.u) >= len(p) {
				np := make([]int32, max(int(n.u)+1, 2*len(p)))
				copy(np, p)
				for i := len(p); i < len(np); i++ {
					np[i] = -1
				}
				p = np
				pages[n.q] = p
			}
			if id := p[n.u]; id >= 0 {
				return int(id), false
			}
			id := g.AddNode()
			p[n.u] = int32(id)
			nodes = append(nodes, n)
			return id, true
		}
	}

	var stack []int
	// push interns n and queues it when it is new; false once the graph
	// has outgrown MaxNodes.
	push := func(n node) (int, bool) {
		id, fresh := intern(n)
		if fresh {
			stack = append(stack, id)
		}
		return id, e.opts.MaxNodes == 0 || len(nodes) <= e.opts.MaxNodes
	}
	srcIDs := make([]int, len(sources))
	for i, a := range sources {
		id, ok := push(node{m.Start, a})
		if !ok {
			return nil, nil, e.maxNodesErr()
		}
		srcIDs[i] = id
	}
	// arc records the graph edge from node id to (q, v), interning and
	// queueing the target when it is new.
	arc := func(id int, q int32, v symtab.Sym) bool {
		nid, ok := push(node{int(q), v})
		g.AddEdge(id, nid)
		return ok
	}
	ticks := 0
	for len(stack) > 0 {
		if ticks++; ticks&cancelCheckMask == 0 {
			if err := cn.check(); err != nil {
				return nil, nil, err
			}
		}
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := nodes[id]
		var vs []symtab.Sym
		edges := m.Edges(n.q)
		for i := range edges {
			t := &edges[i]
			if t.Kind == automaton.KindID {
				if !arc(id, t.To, n.u) {
					return nil, nil, e.maxNodesErr()
				}
				continue
			}
			if !t.Fan {
				vs = e.probe(t, n.u, sc.rels, sc.relCounts, &sc.named)
			}
			for _, v := range vs {
				if !arc(id, t.To, v) {
					return nil, nil, e.maxNodesErr()
				}
			}
		}
	}
	res.Nodes = len(nodes)

	// Condense and propagate final-state terms bottom-up. Tarjan numbers
	// components in reverse topological order: successors of c have
	// smaller indices, so processing components in increasing index order
	// has successor sets ready.
	dag, comp := g.Condense()
	ncomp := dag.Len()

	answers := make([][]symtab.Sym, len(sources))
	words := (bound + 63) / 64
	// reachWordBudget caps the dense propagation memory (in 8-byte
	// words) before falling back to sparse sets.
	const reachWordBudget = 1 << 24
	// The propagation below is where a long-chain batch spends its time
	// (up to ncomp passes over successor sets), so it polls the canceler
	// like the graph build above — a served batch query must honor its
	// deadline here too, not only during traversal.
	if !sparse && bound > 0 && ncomp*words <= reachWordBudget {
		reach := make([][]uint64, ncomp)
		set := func(b []uint64, u symtab.Sym) []uint64 {
			w := int(u) >> 6
			if w >= len(b) {
				nb := make([]uint64, w+1)
				copy(nb, b)
				b = nb
			}
			b[w] |= uint64(1) << (uint(u) & 63)
			return b
		}
		for id, n := range nodes {
			if n.q == m.Final {
				c := comp[id]
				if reach[c] == nil {
					reach[c] = make([]uint64, words)
				}
				reach[c] = set(reach[c], n.u)
			}
		}
		for c := 0; c < ncomp; c++ {
			if c&cancelCheckMask == 0 {
				if err := cn.check(); err != nil {
					return nil, nil, err
				}
			}
			for _, d := range dag.Succ(c) {
				src := reach[d]
				if len(src) == 0 {
					continue
				}
				if reach[c] == nil {
					reach[c] = make([]uint64, max(words, len(src)))
				} else if len(src) > len(reach[c]) {
					nb := make([]uint64, len(src))
					copy(nb, reach[c])
					reach[c] = nb
				}
				dst := reach[c]
				for w, x := range src {
					dst[w] |= x
				}
			}
		}
		for i := range sources {
			b := reach[comp[srcIDs[i]]]
			var out []symtab.Sym
			for w, x := range b {
				for x != 0 {
					out = append(out, symtab.Sym(w<<6+bits.TrailingZeros64(x)))
					x &= x - 1
				}
			}
			answers[i] = out
		}
	} else {
		own := make([]map[symtab.Sym]bool, ncomp)
		for id, n := range nodes {
			if n.q == m.Final {
				c := comp[id]
				if own[c] == nil {
					own[c] = make(map[symtab.Sym]bool)
				}
				own[c][n.u] = true
			}
		}
		reach := make([]map[symtab.Sym]bool, ncomp)
		for c := 0; c < ncomp; c++ {
			// Immediate poll, not tick: one component's union can copy
			// O(answers) elements, so a once-per-4096 poll could let a
			// deadline slip by seconds on the sparse path.
			if err := cn.check(); err != nil {
				return nil, nil, err
			}
			set := make(map[symtab.Sym]bool)
			for t := range own[c] {
				set[t] = true
			}
			for _, d := range dag.Succ(c) {
				for t := range reach[d] {
					set[t] = true
				}
			}
			reach[c] = set
		}
		for i := range sources {
			r := reach[comp[srcIDs[i]]]
			out := make([]symtab.Sym, 0, len(r))
			for t := range r {
				out = append(out, t)
			}
			slices.Sort(out)
			answers[i] = out
		}
	}
	return answers, res, nil
}
