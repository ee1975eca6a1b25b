package chainlog

import (
	"context"

	"chainlog/internal/ast"
	"chainlog/internal/qsqnet"
	"chainlog/internal/symtab"
)

// buildQSQNetPlan compiles the goal-directed QSQ-net route: the relevant
// program slice plus the template's adornment compile into a net of
// input/answer tables once, here; each run seeds the root input table
// with its parameter vector and evaluates against the live store. The
// caller must hold db.mu (shared suffices).
func (db *DB) buildQSQNetPlan(tmpl ast.Query) (plan, error) {
	net, err := qsqnet.Compile(db.relevantProgram(tmpl.Pred), tmpl.Pred, tmpl.Adornment())
	if err != nil {
		return nil, err
	}
	return &qsqnetPlan{tmpl: tmpl, net: net, bound: newBoundVec(tmpl)}, nil
}

// qsqnetPlan evaluates through a compiled QSQ net. The net structure
// depends only on the rules and the binding pattern; facts are read from
// the live store per run, so fact churn needs no plan work at all.
type qsqnetPlan struct {
	tmpl  ast.Query
	net   *qsqnet.Net
	bound boundVec
}

// refreshFacts is a no-op: every run evaluates against the live store.
func (pl *qsqnetPlan) refreshFacts(db *DB) {}

func (pl *qsqnetPlan) run(ctx context.Context, db *DB, args []symtab.Sym) (*Answer, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	tuples, qs, err := pl.net.Eval(ctx, db.store, pl.bound.fill(args))
	if err != nil {
		return nil, err
	}
	return &Answer{Rows: db.render(flatten(pl.project(tuples))), Stats: Stats{
		Iterations: qs.Rounds,
		Nodes:      int(qs.Answers),
		Firings:    qs.Firings,
		Converged:  true,
	}}, nil
}

// project maps the net's full answer tuples onto the query's free
// variables with bottomup.Answer's semantics: rows violating a repeated
// variable's equality are dropped, each free variable projects at its
// first occurrence, and duplicates collapse. Bound positions were
// already filtered by Eval.
func (pl *qsqnetPlan) project(tuples [][]symtab.Sym) [][]symtab.Sym {
	var freeIdx []int
	for i, a := range pl.tmpl.Args {
		if a.IsVar() {
			freeIdx = append(freeIdx, i)
		}
	}
	varPos := make(map[string]int)
	seen := make(map[string]bool, len(tuples))
	var key []byte
	out := make([][]symtab.Sym, 0, len(tuples))
	for _, tuple := range tuples {
		for k := range varPos {
			delete(varPos, k)
		}
		row := make([]symtab.Sym, 0, len(freeIdx))
		ok := true
		for _, i := range freeIdx {
			v := pl.tmpl.Args[i].Var
			if prev, dup := varPos[v]; dup {
				if tuple[prev] != tuple[i] {
					ok = false
					break
				}
				continue
			}
			varPos[v] = i
			row = append(row, tuple[i])
		}
		if !ok {
			continue
		}
		key = key[:0]
		for _, s := range row {
			v := uint32(s)
			key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		if k := string(key); !seen[k] {
			seen[k] = true
			out = append(out, row)
		}
	}
	return out
}
