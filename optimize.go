package chainlog

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"

	"chainlog/internal/optimizer"
	"chainlog/internal/stats"
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
// it, so whatever the optimizer picks, the table holds. Statistics come
// from the per-DB collector, so repeated optimizations between mutations
// are cache hits.
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
	rels := make([]*stats.RelStats, 0, len(names))
	for _, name := range names {
		r := db.store.Relation(name)
		if r == nil {
			// No facts yet: an empty snapshot, but keep the name so the
			// drift trigger sees the relation appear later.
			rels = append(rels, &stats.RelStats{Name: name})
			continue
		}
		rels = append(rels, db.statsC.Stats(r))
	}

	in := optimizer.Input{
		Pred:      t.tmpl.Pred,
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
	_, err := t.route(QSQNet, false)
	in.QSQAvailable = err == nil
	if !strings.Contains(adorned, "b") {
		in.Domain = len(db.activeDomainLocked())
	}
	return optimizer.Choose(in)
}

// installDecision records the optimizer state for a freshly built plan
// (p.plan must already be set). The caller must hold p.mu exclusively,
// or own p uniquely as in prepareQuery.
func (p *Prepared) installDecision(dec *optimizer.Decision, eff Strategy) {
	p.decision = dec
	p.effective.Store(int32(eff))
	p.optimized.Store(dec != nil)
	p.obsWork.Store(0)
	p.feedback.Store(false)
	for i := range p.obsByStrategy {
		p.obsByStrategy[i].Store(0)
	}
	p.estWork.Store(0)
	if dec != nil {
		p.estWork.Store(math.Float64bits(dec.EstWork))
	}
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

// maybeReoptimizeLocked re-costs an Auto plan whose inputs drifted or
// whose runtime feedback contradicts the estimate, switching to the new
// choice's entry in the route table. Switching back and forth never
// recompiles — the route switched to only refreshes its fact-derived
// state, exactly like a fact-epoch refresh. The caller holds db.mu
// (shared) and p.mu (exclusive). Reports whether a re-optimization ran.
func (p *Prepared) maybeReoptimizeLocked(db *DB) bool {
	if p.decision == nil {
		return false
	}
	feedback := p.feedback.Load()
	drifted := p.decision.Drifted(db.currentSizesLocked(p.decision))
	if !feedback && !drifted {
		return false
	}
	if drifted {
		// The measurements predate the mutation; cost from the model and
		// fresh statistics rather than stale observations.
		for i := range p.obsByStrategy {
			p.obsByStrategy[i].Store(0)
		}
	}
	dec := p.routes.optimize(p.observedWorkLocked())
	eff, pl, err := p.routes.choose(dec)
	if err != nil {
		// Not reachable: the optimizer enumerates only routes the table
		// compiled, and the table memoizes.
		p.feedback.Store(false)
		return false
	}
	if pl != p.plan {
		pl.refreshFacts(db)
		p.plan = pl
	}
	p.decision = dec
	p.effective.Store(int32(eff))
	p.estWork.Store(math.Float64bits(dec.EstWork))
	p.obsWork.Store(0)
	p.feedback.Store(false)
	p.reoptCount++
	db.reopts.Add(1)
	return true
}

// recordWork feeds one run's observed extensional retrievals into the
// plan's exponentially weighted average and flags the plan for
// re-optimization when the average contradicts the cost model's
// estimate by FeedbackDeviation in either direction. Every run records
// itself once, in Prepared.run, which every entry point goes through: a
// binding set records the mean of its vectors. Atomic throughout — it
// runs on the hot path under the DB's shared lock.
func (p *Prepared) recordWork(facts int64) {
	if !p.optimized.Load() || facts < 0 {
		return
	}
	obs := math.Float64frombits(p.obsWork.Load())
	if obs == 0 {
		obs = float64(facts)
	} else {
		obs = 0.75*obs + 0.25*float64(facts)
	}
	p.obsWork.Store(math.Float64bits(obs))
	if eff := Strategy(p.effective.Load()); eff >= 0 && eff < strategyCount {
		p.obsByStrategy[eff].Store(math.Float64bits(obs))
	}
	est := math.Float64frombits(p.estWork.Load())
	if est <= 0 {
		return
	}
	hi, lo := obs, est
	if hi < lo {
		hi, lo = lo, hi
	}
	if hi >= float64(optimizer.FeedbackMinWork) && lo*optimizer.FeedbackDeviation < hi {
		p.feedback.Store(true)
	}
}

// RejectedPlan is one alternative the optimizer costed and did not pick.
type RejectedPlan struct {
	Strategy string
	Cost     float64
	Detail   string
}

// PlanChoice describes how a Prepared's evaluation route was chosen.
type PlanChoice struct {
	// Strategy is the route the plan currently executes as — what
	// Stats.Strategy reports. Pinned reports that it came from
	// Options.Strategy, bypassing the optimizer, rather than from the
	// cost model; a pinned Chain that fell back names the route that runs
	// here, and the pin and the chain error in Reason.
	Strategy Strategy
	Pinned   bool
	// Cost is the chosen alternative's estimated cost and EstWork its
	// expected extensional retrievals per run (0 when pinned).
	Cost    float64
	EstWork float64
	// Parallel reports that the plan shards its traversal frontiers: the
	// optimizer's call when the chain route was first built, which a
	// re-optimization does not revisit.
	Parallel bool
	Reason   string
	// Rejected lists the costed alternatives not taken.
	Rejected []RejectedPlan
	// Reoptimizations counts how many times runtime feedback or
	// cardinality drift made this handle re-choose its route.
	Reoptimizations uint64
	// ObservedWork is the runtime feedback average: extensional tuples
	// retrieved per run (0 until an optimizer-chosen plan has run).
	ObservedWork float64
}

// Plan reports the prepared query's current plan choice: the effective
// strategy, whether it was pinned or cost-chosen, the estimates behind
// the choice, the rejected alternatives, and the feedback state.
func (p *Prepared) Plan() PlanChoice {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.planChoiceLocked()
}

// planChoiceLocked is Plan with p.mu held.
func (p *Prepared) planChoiceLocked() PlanChoice {
	pc := PlanChoice{
		Strategy:     Strategy(p.effective.Load()),
		ObservedWork: math.Float64frombits(p.obsWork.Load()),
	}
	if p.decision == nil {
		pc.Pinned = p.opts.Strategy != Auto
		pc.Reason = "extensional predicate: direct index lookup"
		if pc.Pinned {
			pc.Reason = "strategy " + p.opts.Strategy.String() + " pinned by Options.Strategy (optimizer bypassed)"
			if p.chainErr != nil {
				pc.Reason += fmt.Sprintf("; no chain route (%v), so %s runs instead", p.chainErr, pc.Strategy)
			}
		}
		return pc
	}
	pc.Cost = p.decision.Cost
	pc.EstWork = p.decision.EstWork
	pc.Parallel = p.decision.Parallel
	pc.Reason = p.decision.Reason
	pc.Reoptimizations = p.reoptCount
	for _, a := range p.decision.Rejected {
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
