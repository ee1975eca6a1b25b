package chainlog

import (
	"context"
	"fmt"
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
// ways: bindings on a regular (non-expanding) plan are evaluated as one
// shared traversal whose overlapping reachable subgraphs are visited
// once for the whole batch, and remaining bindings are deduplicated and
// fanned out across Options.Parallelism workers.
//
// Statistics are aggregated per batch: every returned Answer carries the
// same Stats describing the whole batch evaluation (per-binding
// attribution is impossible once traversals share state).
func (p *Prepared) RunBatch(argSets [][]string) ([]*Answer, error) {
	return p.RunBatchCtx(nil, argSets)
}

// RunBatchCtx is RunBatch under a context: the shared traversal and the
// fanned-out per-binding runs poll the context like RunCtx, so one
// deadline covers the whole batch.
func (p *Prepared) RunBatchCtx(ctx context.Context, argSets [][]string) ([]*Answer, error) {
	syms := make([][]symtab.Sym, len(argSets))
	for i, args := range argSets {
		row := make([]symtab.Sym, len(args))
		for j, a := range args {
			row[j] = p.db.st.Intern(a)
		}
		syms[i] = row
	}
	return p.RunSymsBatchCtx(ctx, syms)
}

// RunSymsBatch is RunBatch for pre-interned parameter vectors.
func (p *Prepared) RunSymsBatch(argSets [][]symtab.Sym) ([]*Answer, error) {
	return p.RunSymsBatchCtx(nil, argSets)
}

// RunSymsBatchCtx is RunBatchCtx for pre-interned parameter vectors.
func (p *Prepared) RunSymsBatchCtx(ctx context.Context, argSets [][]symtab.Sym) ([]*Answer, error) {
	for _, args := range argSets {
		if len(args) != p.nparams {
			return nil, fmt.Errorf("chainlog: prepared query %s expects %d parameters, got %d", p, p.nparams, len(args))
		}
	}
	if len(argSets) == 0 {
		return []*Answer{}, nil
	}
	db := p.db
	db.mu.RLock()
	defer db.mu.RUnlock()
	pl, err := p.planLocked()
	if err != nil {
		return nil, err
	}

	// Plans with a batch route evaluate the whole binding set in one
	// engine call, whose tally covers the batch.
	var out []*Answer
	switch v := pl.(type) {
	case *directPlan:
		out, err = v.runBatch(ctx, db, argSets)
	case *section4Plan:
		out, err = v.runBatch(ctx, db, argSets)
	}
	if err != nil {
		return nil, err
	}
	// Post-evaluation deadline check, mirroring runMaterialized: per-batch
	// decoding and row sorting below can dwarf the traversal on large
	// answer sets.
	if err := ctxpoll.Err(ctx); err != nil {
		return nil, err
	}
	if out != nil {
		for _, ans := range out {
			p.finish(ans)
		}
		// The optimizer's estimate is per run, and every answer carries the
		// batch's total: the batch records its mean.
		p.recordWork(out[0].Stats.FactsConsulted / int64(len(out)))
		// Final deadline check after the per-answer decode and sort,
		// mirroring runMaterialized: a 200 means the whole batch — not
		// just its traversal — fit the deadline.
		if err := ctxpoll.Err(ctx); err != nil {
			return nil, err
		}
		return out, nil
	}

	// Generic route (ff queries, bottom-up and qsqnet strategies): one
	// materialized run per vector, fanned out across workers when the
	// plan allows parallelism.
	out = make([]*Answer, len(argSets))
	errs := make([]error, len(argSets))
	runOne := func(k int) {
		out[k], errs[k] = p.runMaterialized(ctx, pl, argSets[k])
	}
	if W := min(p.batchWorkers(), len(argSets)); W > 1 {
		// Longest-processing-time order: start the bindings with the
		// largest estimated cost (adjacency degree of their constants)
		// first, so an expensive straggler is not dispatched last to run
		// alone while the other workers drain. Answers keep input order.
		order := p.bindingOrderLocked(argSets)
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
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// batchWorkers resolves Options.Parallelism for fanning a batch's
// bindings out: 0/1 sequential, negative GOMAXPROCS, tracing sequential
// (interleaved trace output would be unreadable).
func (p *Prepared) batchWorkers() int {
	w := p.opts.Parallelism
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if p.opts.Trace != nil {
		return 1
	}
	return w
}

// bindingOrderLocked ranks a batch's parameter vectors by estimated
// per-binding cost, most expensive first — the degree sum of each
// vector's constants over the store's binary adjacency indexes, a
// selectivity estimate read without counting as retrievals. Returns nil
// (input order) for small batches or parameterless plans, where the
// probes cost more than they schedule. The caller holds db.mu (shared).
func (p *Prepared) bindingOrderLocked(argSets [][]symtab.Sym) []int {
	const minBatch = 8
	if p.nparams == 0 || len(argSets) < minBatch {
		return nil
	}
	db := p.db
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

// runBatch evaluates a binding set through the engine's batch API for
// plans with a bound argument; (nil, nil) reports that an ff plan has no
// batch route (it enumerates the active domain regardless of parameters).
func (pl *directPlan) runBatch(ctx context.Context, db *DB, argSets [][]symtab.Sym) ([]*Answer, error) {
	if pl.all {
		return nil, nil
	}
	sources := make([]symtab.Sym, len(argSets))
	for i, args := range argSets {
		sources[i] = bindOne(pl.bound, args)
	}
	answers, res, err := pl.eng.QueryBatchCtx(ctx, pl.pred, sources)
	if err != nil {
		return nil, err
	}
	st := chainStats(res)
	out := make([]*Answer, len(argSets))
	for i := range argSets {
		out[i] = &Answer{Rows: db.render(answers[i], len(answers[i]), 1), Stats: st}
	}
	return out, nil
}

// runBatch evaluates a Section 4 binding set in one engine batch over
// the transformed system's start terms, sharing visited tuple-term state
// across bindings, then decodes per binding.
func (pl *section4Plan) runBatch(ctx context.Context, db *DB, argSets [][]symtab.Sym) ([]*Answer, error) {
	starts := make([]symtab.Sym, len(argSets))
	for i, args := range argSets {
		s, err := pl.bindStart(args)
		if err != nil {
			return nil, err
		}
		starts[i] = s
	}
	answers, res, err := pl.eng.QueryBatchCtx(ctx, pl.tr.QueryPred, starts)
	if err != nil {
		return nil, err
	}
	st := chainStats(res)
	out := make([]*Answer, len(argSets))
	for i := range argSets {
		out[i] = &Answer{Rows: pl.rows(db, answers[i]), Stats: st}
	}
	return out, nil
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
		tmpl ast.Query
		args []symtab.Sym
	}
	parsed := make([]parsedQuery, len(queries))
	groups := make(map[planKey][]int)
	var order []planKey
	for i, text := range queries {
		q, err := parser.ParseQuery(text, db.st)
		if err != nil {
			return nil, err
		}
		if q.IsBuiltin() {
			return nil, fmt.Errorf("chainlog: query must be an ordinary literal")
		}
		tmpl, args := templateize(q)
		parsed[i] = parsedQuery{q: q, tmpl: tmpl, args: args}
		key := shapeKey(tmpl, opts)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}

	out := make([]*Answer, len(queries))
	for _, key := range order {
		idxs := groups[key]
		tmpl := parsed[idxs[0]].tmpl
		p, err := db.cachedPrepared(nil, tmpl, opts)
		if err != nil {
			return nil, err
		}
		argSets := make([][]symtab.Sym, len(idxs))
		for j, i := range idxs {
			argSets[j] = parsed[i].args
		}
		answers, err := p.RunSymsBatch(argSets)
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
