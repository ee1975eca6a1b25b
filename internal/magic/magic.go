// Package magic implements the magic-sets query optimization strategy
// [Bancilhon, Maier, Sagiv, Ullman 1986; Beeri, Ramakrishnan 1987] for
// linear adorned programs — one of the four strategies the paper's
// Section 3 comparison table measures against the graph-traversal
// algorithm.
//
// Given an adorned program (produced by internal/adorn with the same
// sideways-information-passing split the paper uses), the transformation
// produces:
//
//   - a magic predicate m_p^a per adorned predicate, holding the bound
//     argument tuples for which p^a must be computed;
//   - a magic rule m_q^d(Z̄^b) :- m_p^a(X̄^b), b1, ..., bi per adorned rule
//     with a derived body literal;
//   - modified rules p^a(X̄) :- m_p^a(X̄^b), body;
//   - a seed m_q0^a0(c̄) for the query constants.
//
// The rewritten program is evaluated with seminaive bottom-up evaluation.
// The paper's observation — that magic sets restricts the relevant facts
// but still materializes arc-sized (pair-at-a-time) intermediate results,
// costing Θ(n²) on sample (a) where the node-at-a-time traversal costs
// O(n) — is reproduced by experiment E1.
package magic

import (
	"context"
	"fmt"

	"chainlog/internal/adorn"
	"chainlog/internal/ast"
	"chainlog/internal/bottomup"
	"chainlog/internal/edb"
	"chainlog/internal/symtab"
)

// Rewritten is the magic-sets rewriting of an adorned program.
type Rewritten struct {
	// Program is the rewritten Datalog program (modified rules, magic
	// rules and the seed rule).
	Program *ast.Program
	// QueryPred is the renamed query predicate (p^a's key).
	QueryPred string
	// Query is the query literal over QueryPred.
	Query ast.Query
	// Seed is the magic predicate of the seed fact, Program's last rule,
	// which lists the query's bound arguments in order; empty when the
	// query binds nothing and the rewriting has no seed.
	Seed string
}

// MagicPredName returns the magic predicate name for an adorned predicate.
func MagicPredName(p adorn.Pred) string { return "m_" + p.Key() }

// Rewrite builds the magic-sets program for an adorned program.
func Rewrite(ap *adorn.Program) (*Rewritten, error) {
	out := &Rewritten{Program: &ast.Program{}}

	allFree := true
	for i := 0; i < len(ap.Query.Adorn); i++ {
		if ap.Query.Adorn[i] == 'b' {
			allFree = false
		}
	}

	for _, r := range ap.Rules {
		hp := r.HeadPred()
		head := ast.Atom(hp.Key(), r.Head.Args...)

		var body []ast.Literal
		if !allFree {
			body = append(body, ast.Atom(MagicPredName(hp), termSlice(adorn.BoundArgs(r.Head, r.HeadAdorn))...))
		}
		if r.Derived == nil {
			body = append(body, r.AllBody...)
			out.Program.Rules = append(out.Program.Rules, ast.Rule{Head: head, Body: body})
			continue
		}
		dp, _ := r.DerivedPred()
		body = append(body, r.In...)
		body = append(body, ast.Atom(dp.Key(), r.Derived.Args...))
		body = append(body, r.Out...)
		out.Program.Rules = append(out.Program.Rules, ast.Rule{Head: head, Body: body})

		if !allFree {
			// Magic rule: m_q^d(Z̄^b) :- m_p^a(X̄^b), b1..bi.
			mh := ast.Atom(MagicPredName(dp), termSlice(adorn.BoundArgs(*r.Derived, r.DerivedAdorn))...)
			mb := []ast.Literal{ast.Atom(MagicPredName(hp), termSlice(adorn.BoundArgs(r.Head, r.HeadAdorn))...)}
			mb = append(mb, r.In...)
			out.Program.Rules = append(out.Program.Rules, ast.Rule{Head: mh, Body: mb})
		}
	}

	// Seed: m_q0^a0(c̄) :- .
	if !allFree {
		var seedArgs []ast.Term
		for _, a := range ap.QueryLit.Args {
			if !a.IsVar() {
				seedArgs = append(seedArgs, a)
			}
		}
		out.Seed = MagicPredName(ap.Query)
		out.Program.Rules = append(out.Program.Rules, ast.Rule{Head: ast.Atom(out.Seed, seedArgs...)})
	}

	out.QueryPred = ap.Query.Key()
	out.Query = ast.Query{Literal: ast.Atom(out.QueryPred, ap.QueryLit.Args...)}
	return out, nil
}

// Answer runs the rewritten program to fixpoint with seminaive evaluation
// and returns the sorted answer rows (projections onto the query's free
// variables) together with the evaluation statistics.
func (rw *Rewritten) Answer(base *edb.Store) ([][]symtab.Sym, bottomup.Stats, error) {
	return rw.AnswerCtx(nil, base)
}

// AnswerCtx is Answer under a context, polled by the seminaive fixpoint
// (see bottomup.SeminaiveCtx).
func (rw *Rewritten) AnswerCtx(ctx context.Context, base *edb.Store) ([][]symtab.Sym, bottomup.Stats, error) {
	idb, stats, err := bottomup.SeminaiveCtx(ctx, rw.Program, base)
	if err != nil {
		return nil, stats, err
	}
	return bottomup.Answer(idb, rw.Query), stats, nil
}

// Evaluate is the one-call convenience: adorn, rewrite, evaluate.
func Evaluate(prog *ast.Program, q ast.Query, base *edb.Store) ([][]symtab.Sym, bottomup.Stats, error) {
	return EvaluateCtx(nil, prog, q, base)
}

// EvaluateCtx is Evaluate under a context; see AnswerCtx.
func EvaluateCtx(ctx context.Context, prog *ast.Program, q ast.Query, base *edb.Store) ([][]symtab.Sym, bottomup.Stats, error) {
	ap, err := adorn.Adorn(prog, q)
	if err != nil {
		return nil, bottomup.Stats{}, fmt.Errorf("magic: %w", err)
	}
	rw, err := Rewrite(ap)
	if err != nil {
		return nil, bottomup.Stats{}, err
	}
	return rw.AnswerCtx(ctx, base)
}

func termSlice(ts []ast.Term) []ast.Term { return ts }
