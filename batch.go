package chainlog

import (
	"context"
	"runtime"
	"sort"
	"sync/atomic"

	"chainlog/internal/ast"
	"chainlog/internal/chaineval"
	"chainlog/internal/ctxpoll"
	"chainlog/internal/edb"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
)

// RunBatch executes the prepared plan for many parameter vectors at
// once — one slice of constant names per '?' placeholder set, answers
// returned in input order. Batching beats a loop of Run calls in two
// ways: bindings on a regular (non-expanding) chain plan are evaluated as
// one shared traversal whose overlapping reachable subgraphs are visited
// once for the whole batch, and the bindings of every other plan are
// fanned out across Options.Parallelism workers.
//
// Whose work an answer's Stats describe follows from that. A chain plan
// with a bound argument evaluates the batch in one engine call, and
// every answer carries that call's Stats — the whole batch's (per-binding
// attribution is impossible once traversals share state). Every other
// plan — seminaive, qsqnet, an extensional lookup, an ff chain query —
// answers each vector by itself, with that run's Stats.
func (p *Prepared) RunBatch(argSets [][]string) ([]*Answer, error) {
	return p.RunBatchCtx(nil, argSets)
}

// RunBatchCtx is RunBatch under a context: the shared traversal and the
// fanned-out per-binding runs poll the context like RunCtx, so one
// deadline covers the whole batch. A vector naming a constant the symbol
// table has never seen answers empty (see RunCtx).
func (p *Prepared) RunBatchCtx(ctx context.Context, argSets [][]string) ([]*Answer, error) {
	rs, err := p.rows(ctx, argSets)
	if err != nil {
		return nil, err
	}
	out := make([]*Answer, len(rs))
	for i := range rs {
		out[i] = rs[i].answer(p.db.st)
	}
	return out, nil
}

// workers resolves Parallelism for eachBinding: 0 and 1 sequential,
// negative GOMAXPROCS.
func (o Options) workers() int {
	if o.Parallelism < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

// eachBinding is the fan-out of every plan that answers a binding set one
// vector at a time: one(argSets[k], &out[k]) answers vector k, and with
// more than one worker and vector the vectors spread over up to workers
// goroutines. It returns the extensional tuples all of them consulted.
// The caller holds db.mu (shared).
func (db *DB) eachBinding(ctx context.Context, workers int, argSets [][]symtab.Sym, out []SymRows, one func(args []symtab.Sym, r *SymRows) error) (int64, error) {
	errs := make([]error, len(argSets))
	runOne := func(k int) {
		if errs[k] = ctxpoll.Err(ctx); errs[k] == nil {
			errs[k] = one(argSets[k], &out[k])
		}
	}
	if W := min(workers, len(argSets)); W > 1 {
		// Longest-processing-time order: start the bindings with the
		// largest estimated cost (adjacency degree of their constants)
		// first, so an expensive straggler is not dispatched last to run
		// alone while the other workers drain. Answers keep input order.
		order := db.bindingOrderLocked(argSets)
		var cursor atomic.Int64
		chaineval.FanOut(W, func(int) {
			for {
				k := int(cursor.Add(1)) - 1
				if k >= len(argSets) {
					return
				}
				if order != nil {
					k = order[k]
				}
				runOne(k)
			}
		})
	} else {
		for k := range argSets {
			runOne(k)
		}
	}
	var facts int64
	for k, err := range errs {
		if err != nil {
			return 0, err
		}
		facts += out[k].Stats.FactsConsulted
	}
	return facts, nil
}

// bindingOrderLocked ranks a batch's parameter vectors by estimated
// per-binding cost, most expensive first — the degree sum of each
// vector's constants over the store's binary adjacency indexes, a
// selectivity estimate read without counting as retrievals. Returns nil
// (input order) for small batches or parameterless plans, where the
// probes cost more than they schedule. The caller holds db.mu (shared).
func (db *DB) bindingOrderLocked(argSets [][]symtab.Sym) []int {
	const minBatch = 8
	if len(argSets) < minBatch || len(argSets[0]) == 0 {
		return nil
	}
	var rels []*edb.Relation
	for _, name := range db.store.Relations() {
		if r := db.store.Relation(name); r != nil && r.Arity() == 2 {
			rels = append(rels, r)
		}
	}
	if len(rels) == 0 {
		return nil
	}
	cost := make([]int, len(argSets))
	for i, args := range argSets {
		for _, a := range args {
			for _, r := range rels {
				cost[i] += len(r.Successors(a)) + len(r.Predecessors(a))
			}
		}
	}
	order := make([]int, len(argSets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return cost[order[x]] > cost[order[y]] })
	return order
}

// QueryBatch parses and evaluates many queries at once with default
// options, returning answers in input order. Queries sharing a template
// (same predicate and binding pattern, constants abstracted) are grouped
// onto one compiled plan and evaluated as a single batch — see
// Prepared.RunBatch for how batched bindings share traversal state.
func (db *DB) QueryBatch(queries []string) ([]*Answer, error) {
	return db.QueryBatchOpts(queries, Options{})
}

// QueryBatchOpts is QueryBatch with explicit options.
func (db *DB) QueryBatchOpts(queries []string, opts Options) ([]*Answer, error) {
	type parsedQuery struct {
		q    ast.Query
		args []string
	}
	parsed := make([]parsedQuery, len(queries))
	groups := make(map[planKey][]int)
	var order []planKey
	for i, text := range queries {
		// As in QueryOptsCtx: the constants stay names, looked up by the
		// batch run, so an unknown one answers empty and is not interned.
		q, args, err := parser.ParseQueryNames(text)
		if err != nil {
			return nil, err
		}
		parsed[i] = parsedQuery{q: q, args: args}
		key := shapeKey(q, opts)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}

	out := make([]*Answer, len(queries))
	for _, key := range order {
		idxs := groups[key]
		p, err := db.cachedPrepared(nil, parsed[idxs[0]].q, opts)
		if err != nil {
			return nil, err
		}
		p = p.capped(opts.MaxNodes)
		argSets := make([][]string, len(idxs))
		for j, i := range idxs {
			argSets[j] = parsed[i].args
		}
		answers, err := p.RunBatch(argSets)
		if err != nil {
			return nil, err
		}
		for j, i := range idxs {
			answers[j].Vars = freeVars(parsed[i].q)
			out[i] = answers[j]
		}
	}
	return out, nil
}
