package chaineval

import (
	"cmp"
	"context"
	"slices"

	"chainlog/internal/automaton"
	"chainlog/internal/symtab"
)

// RunEM evaluates p(a, Y) sequentially on a scratch of its own and
// returns, beside the result, the automaton the run ended on — EM(p,i)
// with every expansion spliced in, or the compiled M(e_p) when the
// equation is regular — and the number of nodes the run visited at each
// of its states.
func (e *Engine) RunEM(pred string, a symtab.Sym) (*Result, *automaton.NFA, []int, error) {
	sc := new(runScratch)
	if err := e.runInto(nil, pred, a, sc, 1); err != nil {
		return nil, nil, nil, err
	}
	res := sc.res
	res.Answers = sc.G.appendState(nil, sc.m.Final)
	nodes := make([]int, sc.m.NumStates())
	var terms []symtab.Sym
	for q := range nodes {
		terms = sc.G.appendState(terms[:0], q)
		nodes[q] = len(terms)
	}
	return &res, sc.m, nodes, nil
}

// RunIterations evaluates p(a, Y) sequentially and uncapped under ctx on
// a scratch of its own and returns the number of main-loop iterations
// the run began, beside its error: a failed run reports the iteration it
// failed in.
func (e *Engine) RunIterations(ctx context.Context, pred string, a symtab.Sym) (int, error) {
	sc := new(runScratch)
	err := e.runInto(ctx, pred, a, sc, 1)
	return sc.res.Iterations, err
}

// RunWorkers is Query on workers traversal workers: the run a caller
// gets from QueryInto with that count, its answers in Result.Answers.
func (e *Engine) RunWorkers(pred string, a symtab.Sym, workers int) (*Result, error) {
	answers, res, err := e.QueryInto(nil, pred, a, []symtab.Sym{}, e.opts.MaxNodes, workers)
	if err != nil {
		return nil, err
	}
	res.Answers = answers
	return &res, nil
}

// Unguarded returns options with the cyclic guard off and the main loop
// stopped after maxIterations iterations (0: no cap).
func Unguarded(maxIterations int) Options {
	return Options{maxIterations: maxIterations, disableCyclicGuard: true}
}

// queryAll evaluates p(X, Y) for every source constant in domain as one
// sequential QueryBatchCtx and returns the sorted (source, answer) pairs.
func queryAll(e *Engine, ctx context.Context, pred string, domain []symtab.Sym, maxNodes int) ([][2]symtab.Sym, *Result, error) {
	answers, res, err := e.QueryBatchCtx(ctx, pred, domain, maxNodes, 1)
	if err != nil {
		return nil, nil, err
	}
	var pairs [][2]symtab.Sym
	for i, a := range domain {
		for _, v := range answers[i] {
			pairs = append(pairs, [2]symtab.Sym{a, v})
		}
	}
	slices.SortFunc(pairs, func(a, b [2]symtab.Sym) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return pairs, res, nil
}
