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

	"chainlog/internal/analysis"
	"chainlog/internal/automaton"
	"chainlog/internal/edb"
	"chainlog/internal/symtab"
)

// QueryBatchCtx evaluates p(a, Y) for every a in as under ctx and the
// node cap maxNodes (see QueryInto) and returns one sorted answer set per
// binding, in input order, plus aggregate statistics for the whole batch. It sends a
// regular equation down the shared-traversal route and evaluates the
// distinct bindings of any other one by themselves. Duplicate bindings
// are evaluated once; their entries may alias the same answer slice, so
// callers must treat the returned slices as read-only.
func (e *Engine) QueryBatchCtx(ctx context.Context, pred string, as []symtab.Sym, maxNodes int) ([][]symtab.Sym, *Result, error) {
	c, err := e.compiled(pred)
	if err != nil {
		return nil, nil, err
	}
	if len(as) == 0 {
		return nil, &Result{Converged: true}, nil
	}
	if c.regular {
		return e.batchRegular(ctx, c.m, as, maxNodes)
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
	found := make([][]symtab.Sym, len(distinct))
	results := make([]Result, len(distinct))
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
				found[k], results[k], errs[k] = e.query(ctx, pred, distinct[k], nil, 1, maxNodes)
			}
		})
	} else {
		for k := range distinct {
			found[k], results[k], errs[k] = e.query(ctx, pred, distinct[k], nil, e.traversalWorkers(), maxNodes)
		}
	}

	agg := &Result{Converged: true}
	for k := range distinct {
		if errs[k] != nil {
			return nil, nil, errs[k]
		}
		r := &results[k]
		agg.Nodes += r.Nodes
		agg.Expansions += r.Expansions
		agg.Lookups += r.Lookups
		agg.Retrieved += r.Retrieved
		agg.Iterations = max(agg.Iterations, r.Iterations)
		agg.Converged = agg.Converged && r.Converged
	}
	answers := make([][]symtab.Sym, len(as))
	for i, a := range as {
		answers[i] = found[first[a]]
	}
	return answers, agg, nil
}

// QueryAll evaluates p(X, Y) for every source constant in domain,
// returning sorted pairs: it is QueryBatchCtx over the domain, so a
// regular equation is one shared traversal condensed with Tarjan's
// algorithm. It is capped at Options.MaxNodes.
func (e *Engine) QueryAll(pred string, domain []symtab.Sym) ([][2]symtab.Sym, *Result, error) {
	return e.QueryAllCtx(nil, pred, domain, e.opts.MaxNodes)
}

// QueryAllCtx is QueryAll under a context and the node cap maxNodes; see
// QueryBatchCtx.
func (e *Engine) QueryAllCtx(ctx context.Context, pred string, domain []symtab.Sym, maxNodes int) ([][2]symtab.Sym, *Result, error) {
	answers, res, err := e.QueryBatchCtx(ctx, pred, domain, maxNodes)
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
// Nodes are expanded in the order they are interned, so the out-arcs of
// each are one run of a flat arc list. Interning uses dense per-state id
// pages when the Sym domain is small enough, and the reachable-term sets
// propagate as bitsets with word-level unions when their total size is
// affordable; both fall back to the map representation otherwise.
// maxNodes is enforced as nodes are interned, so an oversized graph fails
// before it is built, not after.
func (e *Engine) batchRegular(ctx context.Context, m *automaton.NFA, sources []symtab.Sym, maxNodes int) ([][]symtab.Sym, *Result, error) {
	res := &Result{Iterations: 1, Converged: true}
	cn := canceler{ctx: ctx}
	var work edb.Counters
	bound := 0
	if sb, ok := e.src.(SymBounder); ok {
		bound = sb.SymBound()
	}

	// allPairsDenseLimit bounds the per-page id memory, and the
	// states × bound product caps the total (1<<24 int32s = 64 MiB):
	// one int32 page per visited automaton state.
	const allPairsDenseLimit = 1 << 19

	var nodes []node
	// intern returns n's id, appending n to nodes when it is new.
	var intern func(n node) int32
	if bound > allPairsDenseLimit || m.NumStates()*bound > 1<<24 {
		ids := make(map[node]int32)
		intern = func(n node) int32 {
			id, ok := ids[n]
			if !ok {
				id = int32(len(nodes))
				ids[n] = id
				nodes = append(nodes, n)
			}
			return id
		}
	} else {
		pages := make([][]int32, m.NumStates())
		intern = func(n node) int32 {
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
				return id
			}
			id := int32(len(nodes))
			p[n.u] = id
			nodes = append(nodes, n)
			return id
		}
	}
	full := func() bool { return maxNodes != 0 && len(nodes) > maxNodes }

	srcIDs := make([]int32, len(sources))
	for i, a := range sources {
		if srcIDs[i] = intern(node{m.Start, a}); full() {
			return nil, nil, maxNodesErr(maxNodes)
		}
	}
	// The out-arcs of node id are arcs[start[id]:start[id+1]].
	var arcs, start []int32
	for id := 0; id < len(nodes); id++ {
		if id&cancelCheckMask == cancelCheckMask {
			if err := cn.check(); err != nil {
				return nil, nil, err
			}
		}
		start = append(start, int32(len(arcs)))
		n := nodes[id]
		var vs []symtab.Sym
		edges := m.Edges(n.q)
		for i := range edges {
			t := &edges[i]
			if t.Kind == automaton.KindID {
				if arcs = append(arcs, intern(node{int(t.To), n.u})); full() {
					return nil, nil, maxNodesErr(maxNodes)
				}
				continue
			}
			if !t.Fan {
				vs = e.probe(t, n.u, e.rels, &work)
			}
			for _, v := range vs {
				if arcs = append(arcs, intern(node{int(t.To), v})); full() {
					return nil, nil, maxNodesErr(maxNodes)
				}
			}
		}
	}
	start = append(start, int32(len(arcs)))
	res.Nodes = len(nodes)
	res.Lookups, res.Retrieved = work.Lookups, work.Retrieved

	// Condense and propagate final-state terms bottom-up. Tarjan completes
	// a component after every component it reaches, so taking components
	// in that order finds each successor's set ready. The members of
	// component c are order[end[c]:end[c+1]].
	order, end := make([]int32, 0, len(nodes)), []int32{0}
	comp := analysis.SCC(len(nodes), func(v int) []int32 { return arcs[start[v]:start[v+1]] }, func(members []int32) {
		order = append(order, members...)
		end = append(end, int32(len(order)))
	})
	ncomp := len(end) - 1
	// eachSucc calls f once for every other component an arc of c's
	// members reaches: added[d] == c+1 once d has been.
	added := make([]int32, ncomp)
	eachSucc := func(c int, f func(d int32)) {
		for _, v := range order[end[c]:end[c+1]] {
			for _, w := range arcs[start[v]:start[v+1]] {
				if d := comp[w]; int(d) != c && added[d] != int32(c+1) {
					added[d] = int32(c + 1)
					f(d)
				}
			}
		}
	}

	answers := make([][]symtab.Sym, len(sources))
	words := (bound + 63) / 64
	// reachWordBudget caps the dense propagation memory (in 8-byte
	// words) before falling back to sparse sets.
	const reachWordBudget = 1 << 24
	// The propagation below is where a long-chain batch spends its time
	// (up to ncomp passes over successor sets), so it polls the canceler
	// like the graph build above — a served batch query must honor its
	// deadline here too, not only during traversal.
	if bound > 0 && ncomp*words <= reachWordBudget {
		reach := make([][]uint64, ncomp)
		// grow widens b to at least n words, and to the domain's width.
		grow := func(b []uint64, n int) []uint64 {
			if len(b) >= n {
				return b
			}
			nb := make([]uint64, max(n, words))
			copy(nb, b)
			return nb
		}
		for c := range ncomp {
			if c&cancelCheckMask == 0 {
				if err := cn.check(); err != nil {
					return nil, nil, err
				}
			}
			var set []uint64
			for _, v := range order[end[c]:end[c+1]] {
				if n := nodes[v]; n.q == m.Final {
					w := int(n.u) >> 6
					set = grow(set, w+1)
					set[w] |= uint64(1) << (uint(n.u) & 63)
				}
			}
			eachSucc(c, func(d int32) {
				src := reach[d]
				if len(src) == 0 {
					return
				}
				set = grow(set, len(src))
				for w, x := range src {
					set[w] |= x
				}
			})
			reach[c] = set
		}
		for i := range sources {
			var out []symtab.Sym
			for w, x := range reach[comp[srcIDs[i]]] {
				for x != 0 {
					out = append(out, symtab.Sym(w<<6+bits.TrailingZeros64(x)))
					x &= x - 1
				}
			}
			answers[i] = out
		}
	} else {
		reach := make([]map[symtab.Sym]bool, ncomp)
		for c := range ncomp {
			// Immediate poll, not tick: one component's union can copy
			// O(answers) elements, so a once-per-4096 poll could let a
			// deadline slip by seconds on the sparse path.
			if err := cn.check(); err != nil {
				return nil, nil, err
			}
			set := make(map[symtab.Sym]bool)
			for _, v := range order[end[c]:end[c+1]] {
				if n := nodes[v]; n.q == m.Final {
					set[n.u] = true
				}
			}
			eachSucc(c, func(d int32) {
				for t := range reach[d] {
					set[t] = true
				}
			})
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
