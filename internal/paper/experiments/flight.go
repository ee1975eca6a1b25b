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
	f.Store.Counters.Reset()
	eng := chaineval.New(sys, tr.Source, chaineval.Options{})
	r, err := eng.Query(tr.QueryPred, tr.BoundArg)
	if err != nil {
		return 0, 0, err
	}
	return f.Store.Counters.Snapshot().Retrieved, len(tr.DecodeAnswers(r.Answers)), nil
}
