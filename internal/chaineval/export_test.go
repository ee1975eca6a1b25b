package chaineval

import (
	"chainlog/internal/automaton"
	"chainlog/internal/symtab"
)

// RunEM evaluates p(a, Y) sequentially on a scratch of its own and
// returns, beside the result, the automaton the run ended on: EM(p,i)
// with every expansion spliced in, or the compiled M(e_p) when the
// equation is regular.
func (e *Engine) RunEM(pred string, a symtab.Sym) (*Result, *automaton.NFA, error) {
	sc := new(runScratch)
	if err := e.runInto(nil, pred, a, sc, 1); err != nil {
		return nil, nil, err
	}
	res := sc.res
	res.Answers = sc.G.appendState(nil, sc.m.Final)
	return &res, sc.m, nil
}
