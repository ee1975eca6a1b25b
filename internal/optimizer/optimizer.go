// Package optimizer chooses among the engine's answer-equivalent
// evaluation routes — the paper's chain traversal, bottom-up seminaive
// and the goal-directed QSQ net — by costing each against per-relation
// tuple and key counts (Rel). It deliberately enumerates only
// strategies that are defined for every query shape, so an optimizer
// decision can never change a query's answer, only its speed; the
// shape-restricted specializations (counting, Henschen–Naqvi, Hunt) are
// the paper's baselines under internal/paper, not engine strategies.
//
// The package is pure decision logic over those counts; the chainlog
// package fills them, maps decisions onto compiled plans and feeds
// runtime observations back (see Decision.EstWork).
package optimizer

import (
	"fmt"
	"strings"
)

// Strategy names, as the root package's Strategy constants render them.
const (
	StrategyChain     = "chain"
	StrategySeminaive = "seminaive"
	StrategyQSQNet    = "qsqnet"
)

// Rel is what the cost formulas read of one extensional relation.
type Rel struct {
	Name   string
	Arity  int
	Tuples int // live tuple count
	// OutKeys and InKeys count a binary relation's distinct first- and
	// second-column values.
	OutKeys, InKeys int
	// Distinct holds a wider relation's per-column distinct counts; nil
	// for a binary relation.
	Distinct []int
}

// Input describes one query template to cost.
type Input struct {
	// Adornment is the paper's b/f binding pattern, e.g. "bf" or "bbff".
	Adornment string
	// ChainAvailable reports that some chain-traversal route compiles for
	// this query — the direct binary automaton or the Section 4
	// transformation. When false (nonlinear recursion, mutual recursion,
	// non-chain binding patterns) the engine's "chain" strategy is only a
	// fallback that runs the QSQ net, else seminaive, so it is not a
	// distinct alternative and the optimizer costs those two only.
	ChainAvailable bool
	// DirectChain reports that the direct binary-chain traversal route
	// is available (binary-chain program, bf/fb/ff adornment); otherwise
	// the chain alternative pays the Section 4 tuple-term overhead.
	DirectChain bool
	// SharedAllFree reports that the chain route's all-free enumeration
	// runs as one batch (the solved equation is regular): one graph for
	// every seed, each node probed once, then one walk per seed over the
	// built arcs that takes a cycle's terms whole. Center-linear programs
	// like same-generation are chain-evaluable but not regular, so their
	// all-free route genuinely restarts per seed.
	SharedAllFree bool
	// QSQAvailable reports that the goal-directed QSQ net compiles for
	// this program/query. It accepts arbitrary Datalog (nonlinear and
	// mutual recursion included), so it is usually true for derived
	// queries; compile can still reject on structural grounds
	// (adornment/arity mismatch).
	QSQAvailable bool
	// Recursive reports whether the relevant program slice is recursive;
	// non-recursive queries are one join pass for every route.
	Recursive bool
	// Rels are the extensional relations in the query's relevant program
	// slice.
	Rels []*Rel
	// Domain is the active-domain size bound used for all-free queries
	// (0 = derive from Rels).
	Domain int
	// MaxProcs is runtime.GOMAXPROCS(0).
	MaxProcs int
	// Observed maps strategy names to the measured extensional
	// retrievals per run (an EWMA of Stats.FactsConsulted) from earlier
	// runs of the same prepared query. An alternative with an observation
	// is re-costed from the measurement instead of the model, so a
	// re-optimization can flip away from a route whose estimate proved
	// wrong, and a route that measured badly is not picked back. The
	// caller keeps a measurement until the route it measured recompiles.
	Observed map[string]float64
}

// Alternative is one costed candidate.
type Alternative struct {
	Strategy string  `json:"strategy"`
	Cost     float64 `json:"cost"`
	Detail   string  `json:"detail"`
}

// Decision is the optimizer's record for one prepared plan: what was
// chosen, what it is expected to cost — the baseline runtime feedback
// compares against — and what was rejected and why.
type Decision struct {
	Strategy string
	Cost     float64
	// EstWork is the expected extensional retrievals per run, the unit
	// runtime feedback (Stats.FactsConsulted) is compared against.
	EstWork float64
	// Parallel recommends engine frontier sharding for the chosen plan.
	// A prepared plan's runs read it from the current decision, so each
	// run after a re-optimization takes the new decision's verdict.
	Parallel bool
	Reason   string
	Rejected []Alternative
}

// graphShape is the aggregate the cost formulas consume.
type graphShape struct {
	edges         float64 // total tuples across input relations
	keys          float64 // max distinct-key count (graph node bound)
	dOut, dIn     float64 // mean out/in-degree across input relations
	selective     bool    // at least one bound position in the adornment
	boundFirst    bool    // the first argument is bound (forward start)
	freeEnumSeeds float64
}

// shape aggregates the relations' counts under the query adornment.
func shape(in Input) graphShape {
	g := graphShape{
		selective:  strings.Contains(in.Adornment, "b"),
		boundFirst: strings.HasPrefix(in.Adornment, "b"),
	}
	var outKeys, inKeys float64
	for _, r := range in.Rels {
		g.edges += float64(r.Tuples)
		if r.Arity == 2 {
			outKeys += float64(r.OutKeys)
			inKeys += float64(r.InKeys)
			g.keys = max(g.keys, float64(max(r.OutKeys, r.InKeys)))
		} else {
			// The first column plays the out-key role for the tuple-term
			// chain the Section 4 transformation builds. The in-key role
			// falls to the widest of the remaining columns: a carried-along
			// low-cardinality column (a label, a carrier) is not a chain
			// position, and letting it pose as the in key would fabricate a
			// massive fan-in.
			if len(r.Distinct) > 0 {
				outKeys += float64(r.Distinct[0])
				widest := 0
				for _, d := range r.Distinct[1:] {
					widest = max(widest, d)
				}
				inKeys += float64(widest)
				for _, d := range r.Distinct {
					g.keys = max(g.keys, float64(d))
				}
			}
		}
	}
	if outKeys > 0 {
		g.dOut = g.edges / outKeys
	}
	if inKeys > 0 {
		g.dIn = g.edges / inKeys
	}
	if in.Domain > 0 {
		g.freeEnumSeeds = float64(in.Domain)
	} else {
		g.freeEnumSeeds = g.keys
	}
	return g
}

// Choose costs every applicable alternative and returns the decision,
// cheapest first among Rejected. It never returns nil.
func Choose(in Input) *Decision {
	g := shape(in)
	alts := []Alternative{seminaiveAlternative(in, g)}
	if in.QSQAvailable {
		alts = append(alts, qsqAlternative(in, g))
	}
	if in.ChainAvailable {
		alts = append([]Alternative{chainAlternative(in, g)}, alts...)
	}
	for i := range alts {
		if w, ok := in.Observed[alts[i].Strategy]; ok && w > 0 {
			alts[i].Cost = CostStartup + w*perFactCost(alts[i].Strategy, in)
			alts[i].Detail += fmt.Sprintf("; recalibrated from %.4g observed retrievals/run", w)
		}
	}
	best := 0
	for i := 1; i < len(alts); i++ {
		if alts[i].Cost < alts[best].Cost {
			best = i
		}
	}
	d := &Decision{
		Strategy: alts[best].Strategy,
		Cost:     alts[best].Cost,
		Reason:   alts[best].Detail,
	}
	for i, a := range alts {
		if i != best {
			d.Rejected = append(d.Rejected, a)
		}
	}
	d.EstWork = estWork(d.Strategy, in, g)
	if w, ok := in.Observed[d.Strategy]; ok && w > 0 {
		// The chosen route has been measured: its expected work is the
		// measurement, so the feedback trigger compares future runs
		// against reality rather than the superseded model estimate.
		d.EstWork = w
	}
	// A shared all-free batch runs on the calling goroutine: it has no
	// frontier to shard, whatever its estimate.
	if d.Strategy == StrategyChain && in.MaxProcs > 1 &&
		(g.selective || !in.SharedAllFree) && d.EstWork > float64(ParallelMinWork) {
		d.Parallel = true
	}
	return d
}

// perFactCost is the modeled cost of one extensional retrieval under
// each strategy — the conversion rate between observed FactsConsulted
// and the cost scale the alternatives are compared on. The chain rate
// depends on the route: on the Section 4 transformation every frontier
// step finds and decodes tuple terms in its call's table, so a retrieval
// there costs a node's worth of work, not a flat CSR probe. The net's
// rate does not scale the same way — its per-retrieval work is a join
// against a memoized answer table regardless of tuple width, and the
// carrier cycle measures it at 1.2x seminaive's rate on an n-ary program.
func perFactCost(strategy string, in Input) float64 {
	switch strategy {
	case StrategyChain:
		if !in.DirectChain {
			return CostChainEdge * CostSection4Node
		}
		return CostChainEdge
	case StrategyQSQNet:
		return CostQSQFact
	default:
		return CostSeminaiveFact
	}
}

// chainTraversal is the per-seed traversal cost in the bound direction.
func chainTraversal(g graphShape) (nodes, edges float64) {
	d, n := g.dOut, g.keys
	if g.selective && !g.boundFirst {
		// fb query: the traversal runs over the inverse adjacency.
		d, n = g.dIn, g.keys
	}
	r := reach(d, n)
	return r, r * d
}

// closureTuples bounds the derived relation of the recursive closure:
// reach per seed summed over all seed keys, capped by keys² pairs.
func closureTuples(g graphShape) float64 {
	derived := g.keys * reach(g.dOut, g.keys)
	if m := g.keys * g.keys; derived > m {
		derived = m
	}
	return derived
}

func chainAlternative(in Input, g graphShape) Alternative {
	nodes, edges := chainTraversal(g)
	perNode := CostChainNode
	detail := "direct traversal of the Lemma 1 automaton over CSR adjacency"
	if !in.DirectChain {
		perNode *= CostSection4Node
		detail = "Section 4 tuple-term chain traversal"
	}
	cost := CostStartup + nodes*perNode + edges*CostChainEdge
	if !g.selective {
		seeds := g.freeEnumSeeds
		if in.SharedAllFree {
			// Regular program: the all-free enumeration probes each node
			// of one shared graph once and walks it once per seed, so
			// the total is the closure itself at CSR prices.
			cost = CostStartup + seeds*CostChainSeed +
				closureTuples(g)*perNode + g.edges*CostChainEdge
			detail += ", one condensed batch over all seeds (all-free query)"
		} else {
			// Non-regular (e.g. center-linear) program: every seed
			// genuinely restarts the traversal.
			cost = CostStartup + seeds*(CostChainSeed+nodes*perNode+edges*CostChainEdge)
			detail += " restarted per active-domain constant (all-free query)"
		}
	}
	return Alternative{Strategy: StrategyChain, Cost: cost, Detail: detail}
}

// fixpointFacts estimates the facts a whole-program bottom-up fixpoint
// consults: the extensional input plus one hash-join attempt per
// (closure tuple, incoming edge of its head key) pair — each derived
// tuple is re-derived once per in-edge before dedup rejects it, so the
// closure size alone undercounts the dominant dense-graph term.
func fixpointFacts(in Input, g graphShape) float64 {
	if !in.Recursive {
		return g.edges
	}
	attemptsPerTuple := g.dIn
	if attemptsPerTuple < 1 {
		attemptsPerTuple = 1
	}
	return g.edges + closureTuples(g)*attemptsPerTuple
}

func seminaiveAlternative(in Input, g graphShape) Alternative {
	return Alternative{
		Strategy: StrategySeminaive,
		Cost:     CostStartup + fixpointFacts(in, g)*CostSeminaiveFact,
		Detail:   "bottom-up seminaive fixpoint over the rules the query depends on",
	}
}

func qsqAlternative(in Input, g graphShape) Alternative {
	if !g.selective {
		// No bindings to push: the net's subquery tables cannot prune and
		// the evaluation degenerates to the fixpoint over the slice — same
		// fact count as seminaive, dearer per fact (a memoized subquery
		// per intensional step opened).
		return Alternative{
			Strategy: StrategyQSQNet,
			Cost:     CostStartup + fixpointFacts(in, g)*CostQSQFact,
			Detail:   "goal-directed QSQ net (no bindings to restrict by)",
		}
	}
	// Bindings restrict the net to the goal-reachable subgraph, the cone a
	// bound chain traversal reaches. Each node additionally pays the
	// net's table bookkeeping (input-table subsumption check, answer
	// dedup), and outside the direct binary-chain class the subqueries
	// carry n-ary tuples, so the node term scales the same way the chain
	// route's does — which keeps the tuple-term chain traversal ahead on
	// bound Section 4 queries, matching its ~2x measured wall-clock edge.
	nodes, edges := chainTraversal(g)
	perNode := CostQSQNode
	detail := "goal-directed QSQ net with memoized subquery tables"
	if !in.DirectChain {
		perNode *= CostSection4Node
		detail = "Section 4 n-ary QSQ net with memoized subquery tables"
	}
	return Alternative{
		Strategy: StrategyQSQNet,
		Cost:     CostStartup + nodes*perNode + edges*CostQSQFact,
		Detail:   detail,
	}
}

// estWork is the expected FactsConsulted of the chosen route, the
// baseline runtime feedback compares observations against.
func estWork(strategy string, in Input, g graphShape) float64 {
	switch strategy {
	case StrategyChain:
		_, edges := chainTraversal(g)
		if !g.selective {
			if in.SharedAllFree {
				// One graph over every seed, each node probed once: the
				// seeds' probes at Start retrieve each tuple once, and
				// the nodes past Start about once more. The walks that
				// read the answers off it probe nothing.
				return 2 * g.edges
			}
			return g.freeEnumSeeds * edges
		}
		return edges
	case StrategyQSQNet:
		if g.selective {
			_, edges := chainTraversal(g)
			return edges
		}
	}
	return fixpointFacts(in, g)
}

// Describe renders the decision for explain output.
func (d *Decision) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chosen: %s, estimated cost %.4g (%s)", d.Strategy, d.Cost, d.Reason)
	if d.Parallel {
		b.WriteString(", parallel traversal")
	}
	for _, a := range d.Rejected {
		fmt.Fprintf(&b, "\nrejected: %s, estimated cost %.4g (%s)", a.Strategy, a.Cost, a.Detail)
	}
	return b.String()
}
