package chainlog

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"chainlog/internal/edb"
	"chainlog/internal/optimizer"
)

// This file feeds the optimizer from a template's route table and carries
// the runtime-feedback loop: every Auto-strategy Prepared records the
// Decision it was built from, observes its own work per run, and re-costs
// the choice on the fact-epoch refresh path when the input cardinalities
// drift or the estimate proves wrong — switching among the table's
// entries, so a re-optimization never repeats parsing, the equation
// transformation or automaton compilation.

// strategyForName maps an optimizer decision back to the engine Strategy
// it executes as; the optimizer names its routes by Strategy.String.
func strategyForName(name string) Strategy {
	if s, err := ParseStrategy(name); err == nil && s != Auto {
		return s
	}
	return Chain
}

// optimize costs the template's answer-equivalent routes and returns the
// decision. A route is an alternative exactly when the table compiled
// it, so whatever the optimizer picks, the table holds. Relation counts
// come from the DB's cache, so repeated optimizations between writes
// count nothing.
func (t *routes) optimize(observed map[string]float64) *optimizer.Decision {
	db := t.db
	adorned := t.tmpl.Adornment()

	// Base predicates referenced by the relevant slice, sorted for a
	// deterministic decision record.
	base := map[string]bool{}
	for _, r := range t.sub.Rules {
		for _, l := range r.Body {
			if !l.IsBuiltin() && !t.info.Derived[l.Pred] {
				base[l.Pred] = true
			}
		}
	}
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	rels := make([]*optimizer.Rel, 0, len(names))
	for _, name := range names {
		r := db.store.Relation(name)
		if r == nil {
			// No facts yet: empty counts, but keep the name so the drift
			// trigger sees the relation appear later.
			rels = append(rels, &optimizer.Rel{Name: name})
			continue
		}
		rels = append(rels, db.relStats.of(r))
	}

	in := optimizer.Input{
		Adornment: adorned,
		Recursive: t.info.RecursiveProgram(),
		Rels:      rels,
		MaxProcs:  runtime.GOMAXPROCS(0),
		Observed:  observed,
	}
	if f, err := t.chainForm(); err == nil {
		in.ChainAvailable = true
		in.DirectChain = f.tr == nil
		// Only regular solved equations batch the all-free enumeration
		// across seeds; center-linear ones restart per seed.
		in.SharedAllFree = f.sys.IsRegularFor(f.pred)
	}
	_, err := t.route(QSQNet)
	in.QSQAvailable = err == nil
	if !strings.Contains(adorned, "b") {
		in.Domain = len(db.activeDomainLocked())
	}
	return optimizer.Choose(in)
}

// relCache holds each base relation's optimizer input, counted on demand
// and valid while the relation's version and tuple count hold, so only a
// relation that changed is counted again. Safe for concurrent use.
type relCache struct {
	mu sync.Mutex
	m  map[string]*countedRel
}

// countedRel is one relation's counts and the version they were read at.
type countedRel struct {
	ver uint64
	rel optimizer.Rel
}

// of returns r's counts: one pass over each CSR offset array for a binary
// relation, a hashing pass per column for any other arity. The result is
// shared and must not be modified. The caller excludes writers.
func (c *relCache) of(r *edb.Relation) *optimizer.Rel {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[r.Name()]; ok && e.ver == r.Version() && e.rel.Tuples == r.Len() {
		return &e.rel
	}
	e := &countedRel{ver: r.Version(), rel: optimizer.Rel{Name: r.Name(), Arity: r.Arity(), Tuples: r.Len()}}
	if e.rel.Arity == 2 {
		e.rel.OutKeys, e.rel.InKeys = r.Keys(false), r.Keys(true)
	} else {
		e.rel.Distinct = make([]int, e.rel.Arity)
		for col := range e.rel.Distinct {
			e.rel.Distinct[col] = r.ColumnDistinct(col)
		}
	}
	if c.m == nil {
		c.m = make(map[string]*countedRel)
	}
	c.m[r.Name()] = e
	return &e.rel
}

// clear drops every entry: after a store swap a name may denote another
// relation.
func (c *relCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.m)
}

// observedWorkLocked snapshots the per-strategy work measurements, keyed
// by the optimizer's route names; only routes an optimized plan has run
// as carry one. The caller holds p.mu.
func (p *Prepared) observedWorkLocked() map[string]float64 {
	m := make(map[string]float64)
	for eff := range p.obsByStrategy {
		if w := math.Float64frombits(p.obsByStrategy[eff].Load()); w > 0 {
			m[Strategy(eff).String()] = w
		}
	}
	return m
}

// currentSizesLocked reads the live tuple counts of the relations a
// decision was based on. The caller must hold db.mu (shared suffices).
func (db *DB) currentSizesLocked(dec *optimizer.Decision) map[string]int {
	now := make(map[string]int, len(dec.Sizes))
	for name := range dec.Sizes {
		if r := db.store.Relation(name); r != nil {
			now[name] = r.Len()
		} else {
			now[name] = 0
		}
	}
	return now
}

// maybeReoptimizeLocked re-costs an Auto choice whose inputs drifted or
// whose runtime feedback contradicts the estimate, and installs the new
// decision's entry in the route table as the current choice, with a
// fresh measurement. Switching back and forth never recompiles, and the
// route switched to runs as it compiled: no plan holds fact-derived
// state. The caller holds db.mu (shared) and p.mu. It returns the choice
// that is current, c when nothing was re-costed.
func (p *Prepared) maybeReoptimizeLocked(db *DB, c *choice) *choice {
	if c.decision == nil {
		return c
	}
	feedback := c.feedback.Load()
	drifted := c.decision.Drifted(db.currentSizesLocked(c.decision))
	if !feedback && !drifted {
		return c
	}
	if drifted {
		// The measurements predate the mutation; cost from the model and
		// fresh counts rather than stale observations.
		for i := range p.obsByStrategy {
			p.obsByStrategy[i].Store(0)
		}
	}
	dec := p.routes.optimize(p.observedWorkLocked())
	eff := strategyForName(dec.Strategy)
	pl, err := p.routes.route(eff)
	if err != nil {
		// Not reachable: the optimizer enumerates only routes the table
		// compiled, and the table memoizes.
		c.feedback.Store(false)
		return c
	}
	next := newChoice(pl, dec, eff, c.ruleEpoch, c.reopts+1)
	p.cur.Store(next)
	db.reopts.Add(1)
	return next
}

// recordWork feeds one run's observed extensional retrievals into the
// exponentially weighted average of the choice c it ran and into the
// per-strategy slot of c's strategy, whatever is current by then, and
// flags c for re-optimization when the average contradicts its decision's
// estimate by FeedbackDeviation in either direction. Every run records
// itself once, in Prepared.run, which every entry point goes through: a
// binding set records the mean of its vectors. Atomic throughout — it
// runs on the hot path under the DB's shared lock.
func (p *Prepared) recordWork(c *choice, facts int64) {
	if c.decision == nil || facts < 0 {
		return
	}
	obs := math.Float64frombits(c.work.Load())
	if obs == 0 {
		obs = float64(facts)
	} else {
		obs = 0.75*obs + 0.25*float64(facts)
	}
	c.work.Store(math.Float64bits(obs))
	p.obsByStrategy[c.strategy].Store(math.Float64bits(obs))
	est := c.decision.EstWork
	if est <= 0 {
		return
	}
	hi, lo := obs, est
	if hi < lo {
		hi, lo = lo, hi
	}
	if hi >= float64(optimizer.FeedbackMinWork) && lo*optimizer.FeedbackDeviation < hi {
		c.feedback.Store(true)
	}
}

// RejectedPlan is one alternative the optimizer costed and did not pick.
type RejectedPlan struct {
	Strategy string
	Cost     float64
	Detail   string
}

// PlanChoice describes how a Prepared's evaluation route was chosen: one
// choice, the one the handle's next run reads, whole.
type PlanChoice struct {
	// Strategy is the route the choice executes as — what the
	// Stats.Strategy of each of its runs reports. Pinned reports that it
	// came from Options.Strategy, bypassing the optimizer, rather than
	// from the cost model; a pinned Chain that fell back names the route
	// that runs here, and the pin and the chain error in Reason.
	Strategy Strategy
	Pinned   bool
	// Cost is the chosen alternative's estimated cost and EstWork its
	// expected extensional retrievals per run (0 when pinned).
	Cost    float64
	EstWork float64
	// Parallel reports that the choice's runs shard their traversal
	// frontiers: the optimizer's verdict, which a re-optimization may
	// change for the runs after it.
	Parallel bool
	Reason   string
	// Rejected lists the costed alternatives not taken.
	Rejected []RejectedPlan
	// Reoptimizations counts how many times runtime feedback or
	// cardinality drift made this handle re-choose its route.
	Reoptimizations uint64
	// ObservedWork is the choice's runtime feedback average: extensional
	// tuples retrieved per run of this choice (0 until an optimizer-chosen
	// choice has run; a re-optimization starts it afresh).
	ObservedWork float64
}

// Plan reports the prepared query's current plan choice: the effective
// strategy, whether it was pinned or cost-chosen, the estimates behind
// the choice, the rejected alternatives, and the feedback state.
func (p *Prepared) Plan() PlanChoice {
	return p.planChoice(p.cur.Load())
}

// planChoice describes the choice c of p.
func (p *Prepared) planChoice(c *choice) PlanChoice {
	pc := PlanChoice{
		Strategy:     c.strategy,
		ObservedWork: math.Float64frombits(c.work.Load()),
	}
	if c.decision == nil {
		pc.Pinned = p.opts.Strategy != Auto
		pc.Reason = "extensional predicate: direct index lookup"
		if pc.Pinned {
			pc.Reason = "strategy " + p.opts.Strategy.String() + " pinned by Options.Strategy (optimizer bypassed)"
			if c.chainErr != nil {
				pc.Reason += fmt.Sprintf("; no chain route (%v), so %s runs instead", c.chainErr, pc.Strategy)
			}
		}
		return pc
	}
	pc.Cost = c.decision.Cost
	pc.EstWork = c.decision.EstWork
	pc.Parallel = c.decision.Parallel
	pc.Reason = c.decision.Reason
	pc.Reoptimizations = c.reopts
	for _, a := range c.decision.Rejected {
		pc.Rejected = append(pc.Rejected, RejectedPlan{Strategy: a.Strategy, Cost: a.Cost, Detail: a.Detail})
	}
	return pc
}

// Reoptimizations returns the total number of plan re-optimizations the
// database has performed across all prepared plans — Auto plans
// re-costed because their input cardinalities drifted or their runtime
// feedback contradicted the cost estimate. Exposed by chainlogd as the
// chainlog_plan_reoptimizations_total metric.
func (db *DB) Reoptimizations() uint64 {
	return db.reopts.Load()
}
