package chainlog

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"chainlog/internal/ast"
	"chainlog/internal/parser"
)

// planKey identifies a cached plan. A template has two keys: its text as
// a caller wrote it (text set, shape empty), which a lookup finds
// without parsing anything, and its shape (text empty) — the query
// predicate with the canonical binding pattern: which positions are
// parameters, which are variables, and the variable-repetition
// structure. Both carry the options that shape a plan. Mutations need not
// be part of the key: every cached Prepared records the rule and fact
// epochs it was compiled at, recompiles itself when the rule epoch moves
// (the cache is emptied then too), and recompiles nothing when only the
// fact epoch moved — so the cache, and its hit streaks, survive fact
// churn.
type planKey struct {
	text  string
	shape string
	opts  optionsKey
}

// optionsKey is the subset of Options that shapes a plan: the route it
// takes and how the route is compiled. MaxNodes is absent: a cap is the
// run's, carried by the handle (see compiled.handle), so handles of one
// shape share a plan whatever their caps.
type optionsKey struct {
	strategy      Strategy
	forceSection4 bool
}

func keyOfOptions(o Options) optionsKey {
	return optionsKey{strategy: o.Strategy, forceSection4: o.forceSection4}
}

// shapeKey is the key of a template's shape: the predicate, then '?' for
// holes, the name canonicalVars gives each variable, c<sym> for literal
// constants. sg(?, Y) and sg(?, Z) share a shape; sg(X, X) does not share
// with sg(X, Y).
func shapeKey(tmpl ast.Query, opts Options) planKey {
	var b strings.Builder
	b.WriteString(tmpl.Pred)
	b.WriteByte('(')
	for i, a := range tmpl.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		switch {
		case a.IsVar():
			b.WriteByte('V')
			b.WriteString(strconv.Itoa(varOrdinal(tmpl.Args, i)))
		case a.IsHole():
			b.WriteByte('?')
		default:
			fmt.Fprintf(&b, "c%d", int(a.Const))
		}
	}
	return planKey{shape: b.String(), opts: keyOfOptions(opts)}
}

// maxCachedPlans bounds the cache: its keys hold client-supplied template
// texts, so a misbehaving client could otherwise grow it without limit.
// At the bound the whole map is dropped — plans recompile on demand, so a
// reset costs a brief compile burst, never a wrong answer.
const maxCachedPlans = 1024

// planEntry is one cache slot. The goroutine that inserts it builds the
// plan and closes ready; every other goroutine asking for the key waits
// on ready (or its context) instead of compiling, so a thundering herd
// of identical cold queries costs one compilation.
type planEntry struct {
	ready chan struct{}
	plan  *Prepared
	err   error
}

// planCache is the one template → plan memo: PrepareLiteral (behind
// Query and Explain) and PrepareCached (the serving layer's route) both
// compile through it.
// Rule-epoch mutations empty it (in DB.write) so stale plans
// never pin a replaced store; fact-only mutations leave it intact.
type planCache struct {
	mu      sync.Mutex
	entries map[planKey]*planEntry
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// clear drops every cached entry (hit/miss counters are kept). A racing
// builder may re-insert a plan compiled just before the clear; it
// recompiles itself on first use, so only a brief window of extra
// retention is possible, not staleness.
func (c *planCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.entries)
}

// get returns the plan cached under key, calling build for it exactly
// once however many goroutines race on a cold key. A waiter whose
// context ends before the build does gets the context's cause; the build
// itself continues and lands in the cache for the next request. A failed
// build is not retained, so a later request retries (the program may
// have gained the missing rules in between).
func (c *planCache) get(ctx context.Context, key planKey, build func() (*Prepared, error)) (*Prepared, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		select {
		case <-e.ready:
			return e.plan, e.err
		case <-done:
			return nil, context.Cause(ctx)
		}
	}
	if c.entries == nil || len(c.entries) >= maxCachedPlans {
		// In-flight builds keep their own entry pointers; dropping the map
		// only forgets finished plans.
		c.entries = make(map[planKey]*planEntry)
	}
	e := &planEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	e.plan, e.err = build()
	if e.err != nil {
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	close(e.ready)
	return e.plan, e.err
}

// PlanCacheStats reports the plan cache's effectiveness.
type PlanCacheStats struct {
	// Size is the number of cache keys: one per template shape, plus one
	// per template text asked for through PrepareCached.
	Size int
	// Hits counts lookups served by a cached plan.
	Hits uint64
	// Misses counts lookups that had to compile a plan.
	Misses uint64
}

// PlanCacheStats returns a snapshot of the plan cache counters.
func (db *DB) PlanCacheStats() PlanCacheStats {
	c := &db.plans
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{Size: len(c.entries), Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// PrepareCached is Prepare through the plan cache: the handle for a
// template text and options is found without parsing anything, and
// templates of one shape — the same predicate, holes, constants and
// variable-repetition structure, whatever the variables are called —
// share one compiled plan with each other and with the literals Query
// evaluates. A request that finds the compilation in flight waits for it
// or for ctx (nil waits unconditionally) and then returns ctx's cause.
// The handle runs under opts.MaxNodes, which is no part of the key.
func (db *DB) PrepareCached(ctx context.Context, template string, opts Options) (*Prepared, error) {
	p, err := db.plans.get(ctx, planKey{text: template, opts: keyOfOptions(opts)}, func() (*Prepared, error) {
		tmpl, err := parser.ParseQueryTemplate(template, db.st)
		if err != nil {
			return nil, err
		}
		// Whoever inserts an entry finishes it for everyone waiting on it,
		// whatever becomes of its own request: no context.
		p, err := db.cachedPrepared(nil, tmpl, opts)
		if err != nil {
			return nil, err
		}
		return p.handle(template, freeVars(tmpl), opts), nil
	})
	if err != nil {
		return nil, err
	}
	return p.capped(opts.MaxNodes), nil
}

// PrepareLiteral is PrepareCached for a one-shot query literal such as
// sg(john, Y): the literal parses into a template with a '?' hole for
// each constant, and the constants' names, which a Run of the returned
// handle takes as its parameters. The handle's answers carry the
// literal's own variable names. Nothing is interned, so a constant the
// database has never seen answers empty.
func (db *DB) PrepareLiteral(ctx context.Context, query string, opts Options) (*Prepared, []string, error) {
	q, names, err := parser.ParseQueryNames(query)
	if err != nil {
		return nil, nil, err
	}
	p, err := db.cachedPrepared(ctx, q, opts)
	if err != nil {
		return nil, nil, err
	}
	return p.handle("", freeVars(q), opts), names, nil
}

// cachedPrepared returns the cached plan for a template's shape, compiling
// its canonical form (canonicalVars) on first use; ctx bounds the wait for
// a compilation already in flight, as in PrepareCached. The handle is
// uncapped: a caller runs the plan through a handle with its own cap
// (compiled.handle, Prepared.capped).
func (db *DB) cachedPrepared(ctx context.Context, tmpl ast.Query, opts Options) (*Prepared, error) {
	return db.plans.get(ctx, shapeKey(tmpl, opts), func() (*Prepared, error) {
		db.plans.misses.Add(1)
		return db.prepareQuery(canonicalVars(tmpl), opts)
	})
}
