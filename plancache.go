package chainlog

import (
	"fmt"
	"strings"
	"sync"

	"chainlog/internal/ast"
)

// planKey identifies a cached plan: the query predicate, the canonical
// binding pattern (which positions are parameters, which are variables,
// and the variable-repetition structure), and the evaluation options.
// Mutations need not be part of the key: every cached Prepared records
// the rule and fact epochs it was compiled at, recompiles itself when
// the rule epoch moves (the cache is emptied then too), and merely
// refreshes its relation pointers when only the fact epoch moved — so
// the cache, and its hit streaks, survive fact churn.
type planKey struct {
	pred    string
	pattern string
	opts    optionsKey
}

// optionsKey is the comparable subset of Options that affects plan
// compilation. Trace and TraceMaxNodes are deliberately absent: traced
// queries bypass the cache entirely, and TraceMaxNodes is inert without
// a tracer.
type optionsKey struct {
	strategy           Strategy
	maxIterations      int
	maxNodes           int
	parallelism        int
	disableCyclicGuard bool
	forceSection4      bool
	strict             bool
}

func keyOfOptions(o Options) optionsKey {
	return optionsKey{
		strategy:           o.Strategy,
		maxIterations:      o.MaxIterations,
		maxNodes:           o.MaxNodes,
		parallelism:        o.Parallelism,
		disableCyclicGuard: o.DisableCyclicGuard,
		forceSection4:      o.ForceSection4,
		strict:             o.Strict,
	}
}

// patternOf canonicalizes a template's argument shape: '?' for holes,
// v<i> for variables numbered by first occurrence, c<sym> for literal
// constants. sg(?, Y) and sg(?, Z) share a pattern; sg(X, X) does not
// share with sg(X, Y).
func patternOf(q ast.Query) string {
	var b strings.Builder
	idx := make(map[string]int)
	for i, a := range q.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		switch {
		case a.IsVar():
			j, ok := idx[a.Var]
			if !ok {
				j = len(idx)
				idx[a.Var] = j
			}
			fmt.Fprintf(&b, "v%d", j)
		case a.IsHole():
			b.WriteByte('?')
		default:
			fmt.Fprintf(&b, "c%d", int(a.Const))
		}
	}
	return b.String()
}

// planCache memoizes Prepared plans behind Query/QueryOpts, so one-shot
// queries of a repeated shape compile once. Rule-epoch mutations empty
// the cache (via DB.bumpRuleEpoch) so stale plans never pin a replaced
// store; fact-only mutations leave it intact. Between rule mutations the
// size is bounded by the number of distinct query shapes.
type planCache struct {
	mu      sync.Mutex
	entries map[planKey]*Prepared
	hits    uint64
	misses  uint64
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

// PlanCacheStats reports the plan cache's effectiveness.
type PlanCacheStats struct {
	// Size is the number of cached plans.
	Size int
	// Hits counts Query/QueryOpts calls served by a cached plan.
	Hits uint64
	// Misses counts calls that had to compile a plan.
	Misses uint64
}

// PlanCacheStats returns a snapshot of the plan cache counters.
func (db *DB) PlanCacheStats() PlanCacheStats {
	c := &db.plans
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{Size: len(c.entries), Hits: c.hits, Misses: c.misses}
}

// cachedPrepared returns the cached plan for the template, compiling and
// inserting it on first use. Plans carrying a tracer hold a
// caller-specific writer and are compiled afresh, never cached.
// Compilation happens outside the cache lock so distinct query shapes
// compile in parallel; when two goroutines race on the same new shape,
// the first insert wins and the other build is discarded.
func (db *DB) cachedPrepared(tmpl ast.Query, opts Options) (*Prepared, error) {
	if opts.Trace != nil {
		return db.prepareQuery(tmpl, opts)
	}
	key := planKey{pred: tmpl.Pred, pattern: patternOf(tmpl), opts: keyOfOptions(opts)}
	c := &db.plans
	c.mu.Lock()
	if p, ok := c.entries[key]; ok {
		c.hits++
		c.mu.Unlock()
		return p, nil
	}
	c.misses++
	c.mu.Unlock()

	p, err := db.prepareQuery(tmpl, opts)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if q, ok := c.entries[key]; ok {
		return q, nil
	}
	if c.entries == nil {
		c.entries = make(map[planKey]*Prepared)
	}
	c.entries[key] = p
	return p, nil
}
