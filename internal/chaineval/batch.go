// Batch evaluation: many bound constants against one compiled plan, with
// visited state shared across bindings where the equation system allows.
//
// For regular equations (no derived-predicate transitions, so EM never
// expands) the interpretation graph is built once over every source, one
// probe per node, and condensed with Tarjan's algorithm. A cyclic
// component gets the set of final-state terms it reaches; each source is
// answered by its own walk over the built arcs, which takes such a set
// whole instead of going round the cycle. An acyclic subgraph is walked
// by every source that reaches it, which costs less than closing it for
// all of them. An all-pairs query is a batch over the domain.
//
// Non-regular equations expand EM per binding, so their traversals
// cannot share a graph; the batch deduplicates identical bindings and
// evaluates the distinct ones, fanned out across the call's workers, each
// run on its own pooled scratch.
package chaineval

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"chainlog/internal/analysis"
	"chainlog/internal/automaton"
	"chainlog/internal/edb"
	"chainlog/internal/symtab"
)

// QueryBatchCtx evaluates p(a, Y) for every a in as under ctx, the node
// cap maxNodes and workers workers (see QueryInto) and returns one sorted
// answer set per binding, in input order, plus aggregate statistics for
// the whole batch. It sends a regular equation down the shared-traversal
// route, which runs on the calling goroutine, and evaluates the distinct
// bindings of any other one by themselves, across the workers. Duplicate
// bindings are evaluated once; their entries may alias the same answer
// slice, so callers must treat the returned slices as read-only.
func (e *Engine) QueryBatchCtx(ctx context.Context, pred string, as []symtab.Sym, maxNodes, workers int) ([][]symtab.Sym, *Result, error) {
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
	if W := min(workers, len(distinct)); W > 1 {
		// The batch itself saturates W workers, so each binding's
		// traversal runs sequentially inside — nested level-sharding
		// would oversubscribe the host W×W.
		var cursor atomic.Int64
		fanOut(W, func(int) {
			for {
				k := int(cursor.Add(1)) - 1
				if k >= len(distinct) {
					return
				}
				found[k], results[k], errs[k] = e.QueryInto(ctx, pred, distinct[k], nil, maxNodes, 1)
			}
		})
	} else {
		for k := range distinct {
			found[k], results[k], errs[k] = e.QueryInto(ctx, pred, distinct[k], nil, maxNodes, workers)
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

// batchRegular evaluates a binding set over a regular equation on one
// interpretation graph, built over all sources with one probe per node;
// each cyclic component gets the set of final-state terms it reaches (the
// sharing the paper attributes to [19, 21]) and each source a walk of the
// built arcs. Nodes are expanded in the order they are numbered, so the
// out-arcs of each are one run of a flat arc list. maxNodes is enforced
// as nodes are numbered: an oversized graph fails before it is built.
func (e *Engine) batchRegular(ctx context.Context, m *automaton.NFA, sources []symtab.Sym, maxNodes int) ([][]symtab.Sym, *Result, error) {
	res := &Result{Iterations: 1, Converged: true}
	cn := canceler{ctx: ctx}
	var work edb.Counters
	bs := batchPool.Get().(*batchScratch)
	defer releaseBatch(bs)
	bs.rels = e.bind(bs.rels[:0])

	// intern returns n's id, appending n to bs.nodes when it is new.
	intern := func(n node) int32 {
		id := bs.ids.slot(n)
		if *id == 0 {
			bs.nodes = append(bs.nodes, n)
			*id = int32(len(bs.nodes))
		}
		return *id - 1
	}
	full := func() bool { return maxNodes != 0 && len(bs.nodes) > maxNodes }

	srcIDs := make([]int32, len(sources))
	for i, a := range sources {
		if srcIDs[i] = intern(node{m.Start, a}); full() {
			return nil, nil, maxNodesErr(maxNodes)
		}
	}
	// The out-arcs of node id are arcs[start[id]:start[id+1]].
	arcs, start := bs.arcs[:0], bs.start[:0]
	for id := 0; id < len(bs.nodes); id++ {
		if id&cancelCheckMask == cancelCheckMask {
			if err := cn.check(); err != nil {
				return nil, nil, err
			}
		}
		start = append(start, int32(len(arcs)))
		n := bs.nodes[id]
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
				vs = e.probe(t, n.u, bs.rels, &work)
			}
			for _, v := range vs {
				if arcs = append(arcs, intern(node{int(t.To), v})); full() {
					return nil, nil, maxNodesErr(maxNodes)
				}
			}
		}
	}
	start = append(start, int32(len(arcs)))
	nodes := bs.nodes
	bs.arcs, bs.start = arcs, start
	res.Nodes = len(nodes)
	res.Lookups, res.Retrieved = work.Lookups, work.Retrieved

	// cyc[v] is one plus the index in sets of the term set of v's
	// component, 0 while v is in none: a walk that meets v ORs that set
	// in, once per walk (orred[c] == walk), and goes no further. seen[v]
	// == walk once this walk has met v.
	var sets []*visitedSet
	var orred []int32
	cyc := append(bs.cyc[:0], make([]int32, len(nodes))...)
	seen := append(bs.seen[:0], make([]int32, len(nodes))...)
	bs.cyc, bs.seen = cyc, seen
	var walk int32
	ticks := 0
	// collect walks from the nodes on bs.stack, adding to set the terms
	// of the Final nodes it meets.
	collect := func(set *visitedSet) error {
		walk++
		for len(bs.stack) > 0 {
			if ticks&cancelCheckMask == 0 {
				if err := cn.check(); err != nil {
					return err
				}
			}
			ticks++
			v := bs.stack[len(bs.stack)-1]
			bs.stack = bs.stack[:len(bs.stack)-1]
			if seen[v] == walk {
				continue
			}
			seen[v] = walk
			if c := cyc[v] - 1; c >= 0 {
				if orred[c] != walk {
					orred[c] = walk
					set.or(sets[c])
				}
				continue
			}
			if n := nodes[v]; n.q == m.Final {
				set.visit(0, n.u)
			}
			bs.stack = append(bs.stack, arcs[start[v]:start[v+1]]...)
		}
		return nil
	}

	// Tarjan completes a component after every component it reaches, so
	// the sets a cyclic component's walk ORs in are complete when it runs.
	var err error
	analysis.SCC(len(nodes), func(v int) []int32 { return arcs[start[v]:start[v+1]] }, func(members []int32) {
		v := members[0]
		if err != nil || len(members) == 1 && !slices.Contains(arcs[start[v]:start[v+1]], v) {
			return
		}
		set := new(visitedSet)
		bs.stack = append(bs.stack[:0], members...)
		if err = collect(set); err != nil {
			return
		}
		sets, orred = append(sets, set), append(orred, 0)
		for _, w := range members {
			cyc[w] = int32(len(sets))
		}
	})
	if err != nil {
		return nil, nil, err
	}

	// Each answer is read off the term set's blocks in order.
	answers := make([][]symtab.Sym, len(sources))
	for i, id := range srcIDs {
		bs.stack = append(bs.stack[:0], id)
		if err := collect(&bs.terms); err != nil {
			return nil, nil, err
		}
		if n := bs.terms.count; n > 0 {
			answers[i] = bs.terms.appendState(make([]symtab.Sym, 0, n), 0)
			bs.terms.reset()
		}
	}
	return answers, res, nil
}

// batchScratch is a batch's pooled working state: the relations it
// bound, the graph's nodes and their numbering, the term set a source's
// walk collects into, and the walk's stack.
type batchScratch struct {
	rels                   []*edb.Relation
	nodes                  []node
	ids                    idTable
	terms                  visitedSet
	arcs, start, cyc, seen []int32
	stack                  []int32
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// releaseBatch empties bs, whether its batch finished or failed, and
// returns it to the pool.
func releaseBatch(bs *batchScratch) {
	clear(bs.rels)
	bs.ids.unhook()
	bs.terms.reset()
	bs.nodes, bs.stack = bs.nodes[:0], bs.stack[:0]
	batchPool.Put(bs)
}

// idTable numbers the nodes of a batch's interpretation graph: per
// automaton state, a spine of 64-slot pages hooked on first touch, as
// visitedSet hooks its blocks, so it holds memory in proportion to the
// nodes numbered whatever the size of the domain. A slot holds its
// node's id plus one, 0 while the node has none.
type idTable struct {
	spines [][]*idPage // spines[q][i] holds the terms u with u>>6 == i
	// pages holds every page the table owns, the first len(hooked) hooked
	// where hooked says, as in visitedSet; a page is zeroed as it is
	// hooked.
	pages  []*idPage
	hooked []blockRef
}

type idPage [64]int32

// slot returns the slot of n, hooking a zero page for it when it has
// none.
func (t *idTable) slot(n node) *int32 {
	i := int(n.u) >> 6
	if n.q >= len(t.spines) {
		t.spines = append(t.spines, make([][]*idPage, n.q+1-len(t.spines))...)
	}
	s := t.spines[n.q]
	if i >= len(s) {
		s = append(s, make([]*idPage, i+1-len(s))...)
		t.spines[n.q] = s
	}
	if s[i] == nil {
		if len(t.hooked) == len(t.pages) {
			slab := new([16]idPage)
			for k := range slab {
				t.pages = append(t.pages, &slab[k])
			}
		}
		s[i] = t.pages[len(t.hooked)]
		*s[i] = idPage{}
		t.hooked = append(t.hooked, blockRef{int32(n.q), int32(i)})
	}
	return &s[i][n.u&63]
}

// unhook unhooks every page. Spines keep
// their length.
func (t *idTable) unhook() {
	for _, h := range t.hooked {
		t.spines[h.q][h.i] = nil
	}
	t.hooked = t.hooked[:0]
}
