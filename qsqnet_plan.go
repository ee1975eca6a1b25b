package chainlog

import (
	"context"

	"chainlog/internal/qsqnet"
	"chainlog/internal/symtab"
)

// qsqnetPlan is the goal-directed QSQ-net route: the relevant program
// slice plus the template's adornment compile into a net of input/answer
// tables once, in the route table; each run seeds the root input table
// with its parameter vector. The net structure depends only on the rules
// and the binding pattern; facts are read from the live store per run,
// so fact churn needs no plan work at all.
type qsqnetPlan struct {
	net   *qsqnet.Net
	bound boundVec
	proj  projection
}

// refreshFacts is a no-op: every run evaluates against the live store.
func (pl *qsqnetPlan) refreshFacts(db *DB) {}

func (pl *qsqnetPlan) run(ctx context.Context, db *DB, _ int, argSets [][]symtab.Sym, out []SymRows) (int64, error) {
	return db.eachBinding(ctx, argSets, out, func(args []symtab.Sym, r *SymRows) error {
		bound := pl.bound.fill(nil, args)
		tuples, qs, err := pl.net.Eval(ctx, db.store, bound)
		if err != nil {
			return err
		}
		r.Cells, r.n = project(&pl.proj, r.Cells, tuples, bound)
		r.Stats = Stats{
			Iterations:     qs.Rounds,
			Nodes:          int(qs.Answers),
			Firings:        qs.Firings,
			FactsConsulted: qs.Retrieved,
			Lookups:        qs.Lookups,
		}
		return nil
	})
}
