package experiments

import (
	"chainlog/internal/binchain"
	"chainlog/internal/chaineval"
	"chainlog/internal/equations"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

// runFlightChain evaluates the flight query through the full Section 4
// pipeline (adorn → binary-chain transform → Lemma 1 → traversal) and
// returns the tuples retrieved and the answer count.
func runFlightChain(st *symtab.Table, f *workload.Flights, query string) (retrieved int64, answers int, err error) {
	res, err := parser.Parse(workload.FlightProgram, st)
	if err != nil {
		return 0, 0, err
	}
	q, err := parser.ParseQuery(query, st)
	if err != nil {
		return 0, 0, err
	}
	tr, err := binchain.Transform(res.Program, q, f.Store, false)
	if err != nil {
		return 0, 0, err
	}
	sys, err := equations.Transform(tr.Program)
	if err != nil {
		return 0, 0, err
	}
	run := tr.NewRun()
	r, err := chaineval.New(sys, &run, chaineval.Options{}).Query(tr.QueryPred, run.Bind(nil))
	if err != nil {
		return 0, 0, err
	}
	// The query's free variables are distinct: every answer term is a row.
	return r.Retrieved, len(r.Answers), nil
}
