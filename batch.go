package chainlog

import (
	"context"

	"chainlog/internal/ast"
	"chainlog/internal/ctxpoll"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
)

// RunBatch executes the prepared plan for many parameter vectors at
// once — one slice of constant names per '?' placeholder set, answers
// returned in input order. On a regular (non-expanding) chain plan
// batching beats a loop of Run calls: the bindings are evaluated as one
// shared traversal whose overlapping reachable subgraphs are visited once
// for the whole batch. The bindings of every other plan run in turn.
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
// per-binding runs poll the context like RunCtx, so one deadline covers
// the whole batch. A vector naming a constant the symbol table has never
// seen answers empty (see RunCtx).
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

// eachBinding answers a binding set one vector at a time, in turn:
// one(argSets[k], &out[k]) answers vector k. It returns the extensional
// tuples all of them consulted. The caller holds db.mu (shared).
func (db *DB) eachBinding(ctx context.Context, argSets [][]symtab.Sym, out []SymRows, one func(args []symtab.Sym, r *SymRows) error) (int64, error) {
	var facts int64
	for k, args := range argSets {
		if err := ctxpoll.Err(ctx); err != nil {
			return 0, err
		}
		if err := one(args, &out[k]); err != nil {
			return 0, err
		}
		facts += out[k].Stats.FactsConsulted
	}
	return facts, nil
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
