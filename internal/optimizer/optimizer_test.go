package optimizer

import (
	"strings"
	"testing"
)

// sparseRel fabricates statistics for a binary relation of e edges over
// k distinct keys on each side.
func sparseRel(name string, e, k int) *Rel {
	return &Rel{Name: name, Arity: 2, Tuples: e, OutKeys: k, InKeys: k}
}

// A selective query over a large sparse graph must pick the chain
// traversal: the bound seed explores a tiny reachable fringe while any
// fixpoint pays for the whole relation.
func TestChooseSelectiveSparsePicksChain(t *testing.T) {
	in := Input{
		Adornment:      "bf",
		ChainAvailable: true,
		QSQAvailable:   true,
		DirectChain:    true,
		Recursive:      true,
		Rels:           []*Rel{sparseRel("edge", 100000, 120000)},
		MaxProcs:       1,
	}
	d := Choose(in)
	if d.Strategy != StrategyChain {
		t.Fatalf("chose %s (cost %g), want chain; rejected: %+v", d.Strategy, d.Cost, d.Rejected)
	}
	if len(d.Rejected) != 2 {
		t.Fatalf("want 2 rejected alternatives, got %+v", d.Rejected)
	}
	if d.EstWork <= 0 {
		t.Fatalf("EstWork = %g, want > 0", d.EstWork)
	}
}

// An all-free query over a dense recursive graph must avoid restarting
// the traversal per active-domain constant: one bottom-up fixpoint
// shares all the work.
func TestChooseAllFreeSection4PicksFixpoint(t *testing.T) {
	// All-free over a Section 4 n-ary program: the chain route pays the
	// tuple-term overhead once per active-domain seed, and the domain
	// (airports plus every timestamp constant) is far larger than the
	// tuple-term key space, so one shared fixpoint wins.
	in := Input{
		Adornment:      "ffff",
		ChainAvailable: true,
		QSQAvailable:   true,
		Recursive:      true,
		Rels: []*Rel{{
			Name: "flight", Arity: 4, Tuples: 90,
			Distinct: []int{30, 80, 30, 80},
		}},
		Domain:   500,
		MaxProcs: 1,
	}
	d := Choose(in)
	if d.Strategy == StrategyChain {
		t.Fatalf("all-free Section 4 query chose per-seed chain (cost %g); rejected: %+v", d.Cost, d.Rejected)
	}
}

func TestChooseAllFreeDenseBinaryPicksChain(t *testing.T) {
	// All-free over a dense supercritical binary graph: per-seed CSR
	// traversal does seeds*(nodes+edges) cheap probes, while the fixpoint
	// pays a hash-join attempt per (closure tuple, in-edge) pair — the
	// measured winner on this shape is the restarted traversal.
	in := Input{
		Adornment:      "ff",
		ChainAvailable: true,
		QSQAvailable:   true,
		DirectChain:    true,
		SharedAllFree:  true,
		Recursive:      true,
		Rels:           []*Rel{sparseRel("edge", 40000, 2000)},
		Domain:         2000,
		MaxProcs:       1,
	}
	d := Choose(in)
	if d.Strategy != StrategyChain {
		t.Fatalf("all-free dense binary query chose %s (cost %g); rejected: %+v", d.Strategy, d.Cost, d.Rejected)
	}
	// The non-regular variant restarts per seed, which must cost strictly
	// more than the condensed batch even when it still wins the contest.
	perSeed := in
	perSeed.SharedAllFree = false
	if p := Choose(perSeed); p.Strategy == StrategyChain && p.Cost <= d.Cost {
		t.Fatalf("per-seed restart cost %g not above shared-batch cost %g", p.Cost, d.Cost)
	}
}

// When no chain route compiles (nonlinear recursion), the contest is
// seminaive vs the QSQ net: bound queries push bindings with the net,
// all-free ones pay its tables for nothing.
func TestChooseNoChainRoute(t *testing.T) {
	bound := Input{
		Adornment:    "bf",
		QSQAvailable: true,
		Recursive:    true,
		Rels:         []*Rel{sparseRel("edge", 3000, 2000)},
		MaxProcs:     1,
	}
	d := Choose(bound)
	if d.Strategy != StrategyQSQNet {
		t.Fatalf("bound nonlinear query chose %s (cost %g); rejected: %+v", d.Strategy, d.Cost, d.Rejected)
	}
	if len(d.Rejected) != 1 {
		t.Fatalf("chain must not be listed as an alternative when unavailable: %+v", d.Rejected)
	}
	free := bound
	free.Adornment = "ff"
	free.Domain = 2000
	if d := Choose(free); d.Strategy != StrategySeminaive {
		t.Fatalf("all-free nonlinear query chose %s; rejected: %+v", d.Strategy, d.Rejected)
	}
	// Neither chain nor the net compiles, so the fixpoint is the only
	// alternative — whatever the statistics say.
	neither := bound
	neither.QSQAvailable = false
	if d := Choose(neither); d.Strategy != StrategySeminaive || len(d.Rejected) != 0 {
		t.Fatalf("with no other viable route, want seminaive with no rejected alternatives, got %s / %+v", d.Strategy, d.Rejected)
	}
}

// Parallel traversal is recommended only for big chain-strategy work
// on more than one processor.
func TestChooseParallelRecommendation(t *testing.T) {
	big := Input{
		Adornment:      "bf",
		ChainAvailable: true,
		QSQAvailable:   true,
		DirectChain:    true,
		Recursive:      true,
		Rels:           []*Rel{sparseRel("edge", 1<<22, 1<<20)},
		MaxProcs:       8,
	}
	if d := Choose(big); d.Strategy == StrategyChain && !d.Parallel {
		t.Fatalf("large traversal (EstWork %g) should recommend parallelism", d.EstWork)
	}
	small := big
	small.Rels = []*Rel{sparseRel("edge", 64, 64)}
	if d := Choose(small); d.Parallel {
		t.Fatal("tiny traversal should stay sequential")
	}
	single := big
	single.MaxProcs = 1
	if d := Choose(single); d.Parallel {
		t.Fatal("one processor should stay sequential")
	}
}

// The cost model must be falsifiable: perturbing a constant far enough
// flips a decision, which is exactly what the plan-choice regression
// gate relies on to catch a mis-tuned model.
func TestConstantFlipFlipsDecision(t *testing.T) {
	in := Input{
		Adornment:      "bf",
		ChainAvailable: true,
		QSQAvailable:   true,
		DirectChain:    true,
		Recursive:      true,
		Rels:           []*Rel{sparseRel("edge", 100000, 120000)},
		MaxProcs:       1,
	}
	if d := Choose(in); d.Strategy != StrategyChain {
		t.Fatalf("baseline should choose chain, got %s", d.Strategy)
	}
	old := CostChainEdge
	defer func() { CostChainEdge = old }()
	CostChainEdge = 1e9
	if d := Choose(in); d.Strategy == StrategyChain {
		t.Fatal("inflating CostChainEdge did not flip the decision — the corpus gate could never catch a bad constant")
	}
}

// Runtime observations recalibrate the alternatives they cover: a route
// whose measured work dwarfs its model estimate loses the re-costing,
// and once re-chosen from an observation the expected work is the
// measurement itself (so the feedback trigger compares against reality).
func TestObservedRecalibration(t *testing.T) {
	in := Input{
		Adornment:    "bff",
		QSQAvailable: true,
		Recursive:    true,
		Rels: []*Rel{{
			Name: "flight2", Arity: 3, Tuples: 80,
			Distinct: []int{80, 80, 1},
		}},
		MaxProcs: 1,
	}
	if d := Choose(in); d.Strategy != StrategyQSQNet {
		t.Fatalf("the model should pick qsqnet for the bound query, got %s", d.Strategy)
	}
	// The cycle: the bound seed reaches everything, so the net measured a
	// full fixpoint's worth of retrievals.
	in.Observed = map[string]float64{StrategyQSQNet: 10000}
	d := Choose(in)
	if d.Strategy != StrategySeminaive {
		t.Fatalf("recalibrated qsqnet should lose to the seminaive model cost, got %s (rejected %+v)", d.Strategy, d.Rejected)
	}
	if len(d.Rejected) != 1 || !strings.Contains(d.Rejected[0].Detail, "recalibrated from") {
		t.Fatalf("rejected qsqnet should carry its measured cost: %+v", d.Rejected)
	}
	// An observation of the chosen route pins its expected work.
	in.Observed[StrategySeminaive] = 6500
	if d := Choose(in); d.EstWork != 6500 {
		t.Fatalf("EstWork = %g, want the observation 6500", d.EstWork)
	}
}

// Parallel is the chain route's sharding verdict, so a shared all-free
// batch, which runs on the calling goroutine, never gets it however much
// work it estimates; the bound query over the same relation does.
func TestSharedAllFreeIsNotParallel(t *testing.T) {
	in := Input{
		Adornment:      "ff",
		ChainAvailable: true,
		QSQAvailable:   true,
		DirectChain:    true,
		SharedAllFree:  true,
		Recursive:      true,
		Rels:           []*Rel{sparseRel("edge", 70000, 70001)},
		MaxProcs:       4,
	}
	d := Choose(in)
	if d.Strategy != StrategyChain || d.EstWork <= float64(ParallelMinWork) || d.Parallel {
		t.Fatalf("the shared batch should be chain, past ParallelMinWork and sequential: %+v", d)
	}
	in.Adornment = "bf"
	if d := Choose(in); d.Strategy != StrategyChain || d.EstWork <= float64(ParallelMinWork) || !d.Parallel {
		t.Fatalf("the bound traversal should be chain, past ParallelMinWork and parallel: %+v", d)
	}
}

// Describe names the chosen and rejected routes — the text /v1/explain
// surfaces.
func TestDescribe(t *testing.T) {
	d := Choose(Input{
		Adornment:      "bf",
		ChainAvailable: true,
		QSQAvailable:   true,
		DirectChain:    true,
		Recursive:      true,
		Rels:           []*Rel{sparseRel("edge", 1000, 800)},
		MaxProcs:       1,
	})
	out := d.Describe()
	if !strings.Contains(out, "chosen: ") || !strings.Contains(out, "estimated cost") {
		t.Fatalf("Describe missing chosen line:\n%s", out)
	}
	if strings.Count(out, "rejected: ") != 2 {
		t.Fatalf("Describe should list both rejected alternatives:\n%s", out)
	}
}

// The branching-process reach estimate: subcritical graphs stop early,
// supercritical ones are capped by the key count.
func TestReach(t *testing.T) {
	if r := reach(0.5, 1000); r != 2 {
		t.Fatalf("reach(0.5) = %g, want 2", r)
	}
	if r := reach(3, 1000); r != 1000 {
		t.Fatalf("supercritical reach = %g, want 1000", r)
	}
	if r := reach(0.999999, 10); r != 10 {
		t.Fatalf("near-critical reach should cap at n, got %g", r)
	}
	if r := reach(2, 0); r != 0 {
		t.Fatalf("empty graph reach = %g", r)
	}
}
