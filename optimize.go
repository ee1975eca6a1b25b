package chainlog

import (
	"math"
	"runtime"
	"sort"
	"strings"

	"chainlog/internal/adorn"
	"chainlog/internal/analysis"
	"chainlog/internal/ast"
	"chainlog/internal/binchain"
	"chainlog/internal/equations"
	"chainlog/internal/optimizer"
	"chainlog/internal/qsqnet"
	"chainlog/internal/stats"
)

// This file maps optimizer decisions onto the compiled plan routes and
// carries the runtime-feedback loop: every Auto-strategy Prepared records
// the Decision it was built from, observes its own work per run, and
// re-costs the choice on the fact-epoch refresh path when the input
// cardinalities drift or the estimate proves wrong — reusing compiled
// plans so a re-optimization never repeats parsing, the equation
// transformation or automaton compilation.

// strategyForName maps an optimizer decision back to the engine Strategy
// it executes as; the optimizer names its routes by Strategy.String.
func strategyForName(name string) Strategy {
	if s, err := ParseStrategy(name); err == nil && s != Auto {
		return s
	}
	return Chain
}

// optimizeLocked costs the answer-equivalent routes for a derived-query
// template and returns the decision. The caller must hold db.mu (shared
// suffices). Statistics come from the per-DB collector, so repeated
// optimizations between mutations are cache hits.
func (db *DB) optimizeLocked(tmpl ast.Query, opts Options, observed map[string]float64) *optimizer.Decision {
	sub := db.relevantProgram(tmpl.Pred)
	subInfo := analysis.Analyze(sub)
	adorned := tmpl.Adornment()

	// Base predicates referenced by the relevant slice, sorted for a
	// deterministic decision record.
	base := map[string]bool{}
	for _, r := range sub.Rules {
		for _, l := range r.Body {
			if !l.IsBuiltin() && !subInfo.Derived[l.Pred] {
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
		Pred:        tmpl.Pred,
		Adornment:   adorned,
		Recursive:   subInfo.RecursiveProgram(),
		Rels:        rels,
		Parallelism: opts.Parallelism,
		MaxProcs:    runtime.GOMAXPROCS(0),
		Observed:    observed,
	}
	probe := db.routeProbeLocked(tmpl, opts, sub, subInfo, adorned)
	in.DirectChain = probe.directChain
	in.ChainAvailable = probe.chainAvailable
	in.SharedAllFree = probe.sharedAllFree
	in.MagicAvailable = probe.magicAvailable
	in.QSQAvailable = probe.qsqAvailable
	if !strings.Contains(adorned, "b") {
		in.Domain = len(db.activeDomainLocked())
	}
	return optimizer.Choose(in)
}

// routeProbe records which evaluation routes genuinely compile for one
// query template — a structural property of the rule set, not the facts.
type routeProbe struct {
	directChain    bool
	chainAvailable bool
	sharedAllFree  bool
	magicAvailable bool
	qsqAvailable   bool
}

// routeProbeLocked probes which routes compile for a template, mirroring
// buildChainPlan: the direct binary automaton, else the Section 4
// transformation; both must also pass the equation transformation
// (nonlinear recursion is chain-shaped but has no chain route). The
// probes also reveal whether the all-free enumeration shares work across
// seeds: only regular solved equations batch, center-linear ones
// restart. Results are memoized per rule epoch so re-optimizations on
// the fact-refresh path never repeat a transformation. The caller must
// hold db.mu (shared suffices).
func (db *DB) routeProbeLocked(tmpl ast.Query, opts Options, sub *ast.Program, subInfo *analysis.Info, adorned string) routeProbe {
	key := tmpl.Pred + "^" + adorned
	if opts.ForceSection4 {
		key += "+s4"
	}
	db.probeMu.Lock()
	if db.probeEpoch != db.ruleEpoch || db.probeCache == nil {
		db.probeCache = make(map[string]routeProbe)
		db.probeEpoch = db.ruleEpoch
	}
	if v, ok := db.probeCache[key]; ok {
		db.probeMu.Unlock()
		return v
	}
	db.probeMu.Unlock()

	var v routeProbe
	if subInfo.BinaryChainProgram() && !opts.ForceSection4 &&
		(adorned == "bf" || adorned == "fb" || adorned == "ff") {
		if sys, err := equations.Transform(sub); err == nil {
			v.directChain = true
			v.chainAvailable = true
			v.sharedAllFree = sys.IsRegularFor(tmpl.Pred)
		}
	}
	if !v.chainAvailable {
		if tr, err := binchain.Transform(db.prog, tmpl, db.store, false); err == nil {
			if sys, eerr := equations.Transform(tr.Program); eerr == nil {
				v.chainAvailable = true
				v.sharedAllFree = sys.IsRegularFor(tr.QueryPred)
			}
		}
	}
	// Magic rejects programs outside the linear adorned class (e.g. two
	// derived body literals); enumerating it anyway would let the model
	// pick a route that silently runs as something else.
	if _, err := adorn.Adorn(db.prog, tmpl); err == nil {
		v.magicAvailable = true
	}
	// The QSQ net handles arbitrary Datalog, but probe anyway so a
	// structural compile failure can never become an optimizer choice.
	if _, err := qsqnet.Compile(sub, tmpl.Pred, adorned); err == nil {
		v.qsqAvailable = true
	}

	db.probeMu.Lock()
	if db.probeEpoch == db.ruleEpoch && db.probeCache != nil {
		db.probeCache[key] = v
	}
	db.probeMu.Unlock()
	return v
}

// buildPlanAuto compiles the route for a template: the explicit route
// when the strategy is pinned (or the predicate is extensional), the
// optimizer's choice under Auto. It returns the plan, the decision (nil
// when the optimizer was bypassed) and the effective strategy the plan
// executes as. The caller must hold db.mu (shared suffices).
func (db *DB) buildPlanAuto(tmpl ast.Query, opts Options) (plan, *optimizer.Decision, Strategy, error) {
	info := db.analysisLocked()
	if opts.Strategy != Auto || !info.Derived[tmpl.Pred] {
		pl, err := db.buildPlan(tmpl, opts)
		return pl, nil, opts.Strategy, err
	}
	if opts.Strict {
		// Strict pins the paper's chain route: every fallback is
		// disabled, so there is nothing for the optimizer to choose
		// between — a binding pattern outside the chain class surfaces
		// its chain-check error instead of a differently-routed plan.
		pl, err := db.buildChainPlan(tmpl, opts)
		return pl, nil, Chain, err
	}
	dec := db.optimizeLocked(tmpl, opts, nil)
	eff := strategyForName(dec.Strategy)
	pl, err := db.buildPlanFor(tmpl, opts, eff, dec)
	return pl, dec, eff, err
}

// buildPlanFor compiles one optimizer-chosen route. Unlike buildPlan it
// only maps the four answer-equivalent strategies, and an
// optimizer-chosen Magic compiles to the chain fallback (magic sets with
// a seminaive last resort), so a cost-model mistake can slow a query
// down but never turn it into an error.
func (db *DB) buildPlanFor(tmpl ast.Query, opts Options, eff Strategy, dec *optimizer.Decision) (plan, error) {
	o := opts
	o.Strategy = eff
	if dec != nil && dec.Parallel && o.Parallelism == 0 {
		// The engine reads Parallelism < 0 as "auto-size the worker pool".
		o.Parallelism = -1
	}
	switch eff {
	case Seminaive:
		return &fixpointPlan{tmpl: tmpl, routes: []Strategy{Seminaive}}, nil
	case Magic:
		return chainFallback(tmpl), nil
	case QSQNet:
		pl, err := db.buildQSQNetPlan(tmpl)
		if err != nil {
			// The availability probe compiled this net once already; if the
			// rule set changed underneath, degrade to the always-correct
			// fixpoint rather than surface a build error.
			return &fixpointPlan{tmpl: tmpl, routes: []Strategy{Seminaive}}, nil
		}
		return pl, nil
	default:
		pl, err := db.buildChainPlan(tmpl, o)
		if err != nil {
			// The availability probe said a chain route compiles; if a
			// later compile stage still disagrees, degrade to the
			// binding-directed fallback rather than surface a build error
			// the caller never asked for.
			return chainFallback(tmpl), nil
		}
		return pl, nil
	}
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
	if dec != nil {
		p.estWork.Store(math.Float64bits(dec.EstWork))
		p.builtPlans = map[Strategy]plan{eff: p.plan}
	} else {
		p.estWork.Store(0)
		p.builtPlans = nil
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
// choice's plan. Compiled plans are cached per strategy, so switching
// back and forth never recompiles — the new route only refreshes its
// fact-derived state, exactly like a fact-epoch refresh. The caller
// holds db.mu (shared) and p.mu (exclusive). Reports whether a
// re-optimization ran.
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
	dec := db.optimizeLocked(p.tmpl, p.opts, p.observedWorkLocked())
	eff := strategyForName(dec.Strategy)
	pl, ok := p.builtPlans[eff]
	if !ok {
		var err error
		pl, err = db.buildPlanFor(p.tmpl, p.opts, eff, dec)
		if err != nil {
			// Keep the working plan; still count the attempt so the churn
			// is visible, and adopt the new baseline so the next refresh
			// does not retry immediately.
			pl = p.plan
		} else {
			p.builtPlans[eff] = pl
		}
	}
	p.plan = pl
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
// estimate by FeedbackDeviation in either direction. Atomic throughout —
// it runs on the hot path under the DB's shared lock.
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

// Observe feeds a serving-layer measurement back into the plan: the
// request latency (the same value the server's /metrics histograms
// record) and the run's FactsConsulted. The work observation drives the
// re-optimization trigger; the latency average is surfaced via Plan().
// Safe to call concurrently; negative values are ignored.
func (p *Prepared) Observe(seconds float64, factsConsulted int64) {
	if seconds >= 0 {
		obs := math.Float64frombits(p.obsSeconds.Load())
		if obs == 0 {
			obs = seconds
		} else {
			obs = 0.75*obs + 0.25*seconds
		}
		p.obsSeconds.Store(math.Float64bits(obs))
	}
	p.recordWork(factsConsulted)
}

// RejectedPlan is one alternative the optimizer costed and did not pick.
type RejectedPlan struct {
	Strategy string
	Cost     float64
	Detail   string
}

// PlanChoice describes how a Prepared's evaluation route was chosen.
type PlanChoice struct {
	// Strategy is the route the plan currently executes as. Pinned
	// reports that it came from Options.Strategy, bypassing the
	// optimizer, rather than from the cost model.
	Strategy Strategy
	Pinned   bool
	// Cost is the chosen alternative's estimated cost and EstWork its
	// expected extensional retrievals per run (0 when pinned).
	Cost    float64
	EstWork float64
	// Parallel reports that the optimizer asked for frontier sharding.
	Parallel bool
	Reason   string
	// Rejected lists the costed alternatives not taken.
	Rejected []RejectedPlan
	// Reoptimizations counts how many times runtime feedback or
	// cardinality drift made this handle re-choose its route.
	Reoptimizations uint64
	// ObservedWork and ObservedSeconds are the runtime feedback averages
	// (0 until the plan has run / been Observed).
	ObservedWork    float64
	ObservedSeconds float64
}

// Plan reports the prepared query's current plan choice: the effective
// strategy, whether it was pinned or cost-chosen, the estimates behind
// the choice, the rejected alternatives, and the feedback state.
func (p *Prepared) Plan() PlanChoice {
	p.mu.RLock()
	defer p.mu.RUnlock()
	pc := PlanChoice{
		Strategy:        Strategy(p.effective.Load()),
		ObservedWork:    math.Float64frombits(p.obsWork.Load()),
		ObservedSeconds: math.Float64frombits(p.obsSeconds.Load()),
	}
	if p.decision == nil {
		pc.Pinned = p.opts.Strategy != Auto
		pc.Reason = "extensional predicate: direct index lookup"
		if pc.Pinned {
			pc.Reason = "strategy " + p.opts.Strategy.String() + " pinned by Options.Strategy (optimizer bypassed)"
		} else if _, base := p.plan.(*basePlan); p.opts.Strict && !base {
			pc.Pinned = true
			pc.Reason = "chain route required by Options.Strict (optimizer bypassed)"
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
