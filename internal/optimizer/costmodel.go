package optimizer

// The cost model's coefficients, centralized so the plan-choice
// regression gate (testdata/planchoice + TestPlanChoiceCorpus) is
// falsifiable: perturbing any constant here far enough flips a corpus
// decision and fails the gate, exactly like editing a bench baseline.
// Units are abstract "retrieval-equivalents" — one warm CSR probe plus
// its bookkeeping ≈ 1.0 — calibrated against the benchmark suite, not
// wall-clock on any particular machine.
var (
	// CostChainNode is the charge per (state, term) node the chain
	// traversal constructs: a visited-set test, a CSR probe and the
	// frontier push. The automata are id-free, so this is what every
	// node but the answers does — none only hands a term on.
	CostChainNode = 1.0

	// CostChainEdge is the charge per neighbor retrieved on the
	// traversal frontier (the FactsConsulted unit).
	CostChainEdge = 1.0

	// CostChainSeed is the per-seed restart overhead of an all-free
	// chain query, which traverses once per active-domain constant.
	CostChainSeed = 4.0

	// CostSeminaiveFact is the charge per fact the bottom-up fixpoint
	// consults or derives: hash-join probes and dedup dominate, so it is
	// a small multiple of a CSR probe.
	CostSeminaiveFact = 2.5

	// CostMagicFact is the charge per fact in the magic-rewritten
	// fixpoint: seminaive's bookkeeping plus the magic-predicate joins.
	CostMagicFact = 5.0

	// CostQSQFact is the charge per fact the QSQ-net evaluator consults,
	// measured against CostSeminaiveFact on the carrier-cycle corpus case,
	// where both consult ~the same fact count (22,650 and 22,952).
	// Re-measured in PR 22, when both evaluators moved onto one tuple
	// table: 40 alternating runs, the fixpoint 4.4-6.1 ms in the median
	// to the net's 5.6-7.7 depending on which goes first, 1.2x, where
	// string-keyed tables had the net ahead (17.3 ms to 17.9; 2.2). The
	// net memoizes a subquery per intensional step it opens and re-joins
	// every processed input per delta; on probes that cost nothing to key,
	// that bookkeeping shows. It must stay above the chain constants (the
	// traversal is still the fast path when it compiles) and below
	// CostMagicFact (same restricted fact set, no rewritten-predicate
	// joins).
	CostQSQFact = 3.0

	// CostQSQNode is the per-node charge of the selective QSQ route on
	// top of its retrievals: every subquery the net opens pays an
	// input-table subsumption check and its answers pay table dedup —
	// several times a chain traversal's visited-set test. Outside the
	// direct binary-chain class it scales by CostSection4Node exactly
	// like the chain route's node charge, so on bound Section 4 queries
	// the model keeps the tuple-term traversal ahead of the net,
	// matching its ~2x measured wall-clock edge there.
	CostQSQNode = 4.0

	// CostSection4Node scales the chain-route charges when the query
	// needs the Section 4 n-ary-to-binary transformation: every
	// traversal step interns and decodes tuple terms instead of walking
	// a flat CSR.
	CostSection4Node = 6.0

	// CostStartup is the fixed per-run charge of any route (scratch
	// acquisition, automaton root expansion).
	CostStartup = 16.0

	// ParallelMinWork is the estimated chain-traversal work below which
	// frontier sharding is not worth the worker handoff: small queries
	// stay on the zero-allocation sequential path.
	ParallelMinWork = 1 << 16

	// FeedbackDeviation is the observed-vs-estimated work ratio past
	// which a plan is flagged for re-optimization at its next
	// fact-epoch refresh.
	FeedbackDeviation = 8.0

	// FeedbackMinWork floors the feedback trigger: tiny queries have
	// estimates of a few units where an 8x deviation is noise.
	FeedbackMinWork = int64(4096)

	// DriftFraction is the relative cardinality change of any input
	// relation that triggers re-optimization at the next fact-epoch
	// refresh (a plan chosen for yesterday's sizes).
	DriftFraction = 0.25

	// DriftMinTuples floors the drift trigger in absolute tuples, so a
	// handful of asserts on a toy relation does not thrash the choice.
	DriftMinTuples = 8
)

// reach estimates the nodes visited from one seed under mean branching
// factor d over a graph with n reachable keys: the expected total
// progeny of a subcritical branching process (d < 1), everything for a
// critical or supercritical one, always capped by the key count.
func reach(d float64, n float64) float64 {
	if n <= 0 {
		return 0
	}
	if d < 1 {
		r := 1 / (1 - d)
		if r > n {
			return n
		}
		return r
	}
	return n
}
