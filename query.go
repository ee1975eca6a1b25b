package chainlog

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"chainlog/internal/ast"
	"chainlog/internal/chaineval"
	"chainlog/internal/symtab"
)

// ErrMaxNodes is the sentinel wrapped by evaluation errors caused by the
// Options.MaxNodes resource bound, so serving layers can distinguish an
// admission-control rejection (the query outgrew its node budget) from a
// malformed query. Match with errors.Is.
var ErrMaxNodes = chaineval.ErrMaxNodes

// Strategy selects the evaluation method for a query.
type Strategy int

const (
	// Auto, the zero value, hands the choice to the cost-based plan
	// optimizer: per-relation statistics (cardinalities, degree
	// histograms off the CSR offset arrays) cost the answer-equivalent
	// routes that compiled for the template — chain traversal,
	// seminaive bottom-up, the QSQ net — and the cheapest runs. The
	// decision is recorded on the plan
	// (surfaced by Prepared.Plan and Explain) and revisited when input
	// cardinalities drift or runtime feedback contradicts the estimate.
	// Setting any named strategy instead pins it: a manual choice is
	// never second-guessed.
	Auto Strategy = iota
	// Chain is the paper's graph-traversal algorithm. Binary-chain
	// programs with a bf/fb/ff query evaluate directly over the Lemma 1
	// equations; other linear programs (n-ary predicates, or binary
	// queries binding both arguments) go through the Section 4
	// transformation first. Where neither compiles — a binding pattern
	// outside the chain class, recursion Lemma 1 cannot solve — a pinned
	// Chain falls back to QSQNet, or to Seminaive when the net rejects
	// the program too; Stats.Strategy names the route that ran, and
	// Plan's Reason carries the chain error.
	Chain
	// Seminaive is general seminaive (delta) bottom-up evaluation.
	Seminaive
	// QSQNet is goal-directed Query-Subquery Net evaluation (Nguyen &
	// Cao): the rule program plus the query's adornment compile into a
	// net of input/answer tables once, then each run seeds the root
	// input table and propagates subqueries tuple-set-at-a-time with
	// memoization. Handles arbitrary Datalog (nonlinear and mutual
	// recursion included) and explores only the goal-reachable portion
	// of the search space, so it wins when bound arguments prune.
	QSQNet

	// strategyCount bounds per-strategy state arrays.
	strategyCount
)

// strategyNames spells each strategy the way the CLI, the server and the
// optimizer's decision records do.
var strategyNames = [strategyCount]string{"auto", "chain", "seminaive", "qsqnet"}

func (s Strategy) String() string {
	if s >= 0 && s < strategyCount {
		return strategyNames[s]
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Strategies lists every selectable strategy, in declaration order.
func Strategies() []Strategy {
	return []Strategy{Auto, Chain, Seminaive, QSQNet}
}

// ParseStrategy resolves a strategy name — the String form of one of
// Strategies(), in any letter case. The empty name is Auto: an unset
// strategy means the optimizer decides. An error comes with Auto.
func ParseStrategy(name string) (Strategy, error) {
	lower := strings.ToLower(name)
	if lower == "" {
		return Auto, nil
	}
	for s, n := range strategyNames {
		if lower == n {
			return Strategy(s), nil
		}
	}
	valid := strings.Join(strategyNames[:], ", ")
	switch lower {
	case "counting", "reverse-counting", "revcounting", "henschen-naqvi", "hn", "hunt", "magic":
		return Auto, fmt.Errorf("chainlog: %q is a baseline of the paper's comparison, not an evaluation strategy; cmd/benchtables runs it (strategies: %s)", name, valid)
	}
	return Auto, fmt.Errorf("chainlog: unknown strategy %q (strategies: %s)", name, valid)
}

// Options tunes query evaluation. The zero value is ready to use.
type Options struct {
	// Strategy selects the evaluation method. The default, Auto, lets
	// the cost-based optimizer pick among the answer-equivalent routes;
	// naming a strategy pins it, bypassing the optimizer entirely.
	Strategy Strategy
	// MaxNodes bounds a chain run's interpretation graph (0 = unlimited);
	// a run past it fails with ErrMaxNodes. It belongs to the run, not
	// the plan: handles that differ only in MaxNodes share one compiled
	// plan and one plan-cache entry.
	MaxNodes int

	// forceSection4 routes binary-chain queries — bf, fb and ff alike —
	// through the Section 4 transformation as well: ablation A4 and the
	// test that the two routes agree set it.
	forceSection4 bool
}

// Stats describes the work one query performed, in the units the paper's
// analysis uses.
type Stats struct {
	// Strategy is the route that ran — never Auto for a derived
	// predicate, and the fallback's own name when a pinned Chain fell
	// back.
	Strategy Strategy
	// Iterations is the number of main-loop iterations / levels.
	Iterations int
	// Nodes is the number of (state, term) graph nodes constructed, or
	// the closest analogue the strategy has (facts derived for the
	// bottom-up ones, answer-table tuples for QSQNet).
	Nodes int
	// Expansions counts EM(p,i) derived-transition expansions (Chain).
	Expansions int
	// FactsConsulted is the number of extensional tuples the run
	// retrieved; compiling a plan reads no facts. Every strategy tallies
	// its own probes, so the count is exact whatever runs concurrently;
	// the store counts nothing. In a batch (see Prepared.RunBatch) a bound
	// chain plan's answers all carry the batch's total, and every other
	// plan's answers their own.
	FactsConsulted int64
	// Lookups is the number of extensional index probes, tallied like
	// FactsConsulted.
	Lookups int64
	// Firings is the number of rule firings (Seminaive and QSQNet).
	// Seminaive evaluates the rules the query's predicate depends on, not
	// every rule the database holds, so its Firings, Nodes and Iterations
	// are that slice's.
	Firings int64
	// AnswerCompleteAt is the first iteration after which the answer set
	// stopped growing (Chain only).
	AnswerCompleteAt int
}

// Answer is a query result: one row per binding of the query's free
// variables, in their order of appearance.
type Answer struct {
	// Vars names the query's free variables (deduplicated, in order).
	Vars []string
	// Rows holds the answer tuples as constant names, sorted by name
	// (column by column, bytewise). The rows of one Answer are cut from a
	// single backing array: appending to a row copies it, but keeping one
	// row alive keeps them all.
	Rows [][]string
	// True reports, for fully bound queries, whether the fact holds.
	True  bool
	Stats Stats
}

// SymRows is an answer whose cells are still symbols: what a plan hands
// back, and what the serving edge writes from, naming each cell as it
// goes out. Cells holds the rows one after another, len(Vars) symbols
// each, sorted by name as Answer.Rows are; the DB's SymTab names them.
// A boolean query (no Vars) has no cells and answers in True. Neither
// slice may be modified: Vars is the plan's, and a batch's answers may
// share cells.
type SymRows struct {
	Vars  []string
	Cells []symtab.Sym
	True  bool
	Stats Stats
	// n counts the rows, which is what True is made of when there are no
	// Vars.
	n int
}

// Query parses and evaluates a query with default options. It is a thin
// wrapper over the prepared-plan layer: the query's constants become plan
// parameters, so repeated queries of the same shape hit the plan cache
// and skip recompilation.
func (db *DB) Query(query string) (*Answer, error) {
	return db.QueryOpts(query, Options{})
}

// QueryCtx is Query under a context: evaluation polls the context
// mid-traversal (see Prepared.RunCtx), so a deadline aborts a runaway
// query instead of running it to completion.
func (db *DB) QueryCtx(ctx context.Context, query string) (*Answer, error) {
	return db.QueryOptsCtx(ctx, query, Options{})
}

// QueryOpts parses and evaluates a query with explicit options.
func (db *DB) QueryOpts(query string, opts Options) (*Answer, error) {
	return db.QueryOptsCtx(nil, query, opts)
}

// QueryOptsCtx is QueryOpts under a context; see QueryCtx. The query
// runs through PrepareLiteral and Prepared.RunCtx: a constant the
// database has never seen answers empty and is not interned.
func (db *DB) QueryOptsCtx(ctx context.Context, query string, opts Options) (*Answer, error) {
	p, args, err := db.PrepareLiteral(ctx, query, opts)
	if err != nil {
		return nil, err
	}
	return p.RunCtx(ctx, args...)
}

// canonicalVars renames a query's variables V0, V1, … by first
// occurrence: the form the plan cache compiles, so templates that differ
// only in what they call their variables share a plan.
func canonicalVars(q ast.Query) ast.Query {
	lit := ast.Literal{Pred: q.Pred, Op: q.Op, Args: slices.Clone(q.Args)}
	for i, a := range lit.Args {
		if a.IsVar() {
			lit.Args[i] = ast.V(fmt.Sprintf("V%d", varOrdinal(q.Args, i)))
		}
	}
	return ast.Query{Literal: lit}
}

// varOrdinal numbers the variable args[i] by first occurrence: how many
// distinct variables appear before its first occurrence.
func varOrdinal(args []ast.Term, i int) int {
	n := 0
	for j, a := range args[:i] {
		first := a.IsVar() && !slices.ContainsFunc(args[:j], func(b ast.Term) bool { return b.IsVar() && b.Var == a.Var })
		if first && a.Var == args[i].Var {
			return n
		}
		if first {
			n++
		}
	}
	return n
}

// substituteArgs instantiates a template's holes with the given parameter
// values, in hole order.
func substituteArgs(tmpl ast.Query, args []symtab.Sym) ast.Query {
	lit := ast.Literal{Pred: tmpl.Pred, Op: tmpl.Op, Args: make([]ast.Term, len(tmpl.Args))}
	k := 0
	for i, a := range tmpl.Args {
		if a.IsHole() {
			lit.Args[i] = ast.C(args[k])
			k++
		} else {
			lit.Args[i] = a
		}
	}
	return ast.Query{Literal: lit}
}

// relevantProgram slices the program down to the rules for predicates
// reachable from the query predicate in the dependency graph. A database
// can hold unrelated rule sets (e.g. a non-chain view next to a chain
// program); classification and compilation consider only the reachable
// slice. The caller must hold db.mu.
func (db *DB) relevantProgram(pred string) *ast.Program {
	reach := map[string]bool{pred: true}
	stack := []string{pred}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range db.prog.RulesFor(p) {
			for _, l := range r.Body {
				if !l.IsBuiltin() && !reach[l.Pred] {
					reach[l.Pred] = true
					stack = append(stack, l.Pred)
				}
			}
		}
	}
	out := &ast.Program{}
	for _, r := range db.prog.Rules {
		if reach[r.Head.Pred] {
			out.Rules = append(out.Rules, r)
		}
	}
	return out
}

func chainStats(r *chaineval.Result) Stats {
	return Stats{
		Iterations:       r.Iterations,
		Nodes:            r.Nodes,
		Expansions:       r.Expansions,
		AnswerCompleteAt: r.AnswerCompleteAt,
		FactsConsulted:   r.Retrieved,
		Lookups:          r.Lookups,
	}
}

// render is the one Sym→string row renderer, the edge where a library
// answer gets its names. It resolves n rows of width w, given as n*w
// cells in row-major order, into a single []string arena and cuts the
// rows out of it: two allocations however many rows, and the symbol
// table's lock taken at most once. A zero-width row set is n empty rows.
func render(st *symtab.Table, cells []symtab.Sym, n, w int) [][]string {
	arena := st.AppendNames(make([]string, 0, len(cells)), cells)
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = arena[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// answer names r's rows into an Answer.
func (r *SymRows) answer(st *symtab.Table) *Answer {
	ans := &Answer{Vars: append([]string(nil), r.Vars...), True: r.True, Stats: r.Stats}
	if w := len(r.Vars); w > 0 {
		ans.Rows = render(st, r.Cells, len(r.Cells)/w, w)
	}
	return ans
}

func freeVars(q ast.Query) []string {
	var out []string
	seen := map[string]bool{}
	for _, a := range q.Args {
		if a.IsVar() && !seen[a.Var] {
			seen[a.Var] = true
			out = append(out, a.Var)
		}
	}
	return out
}

// projection maps tuples onto a template's free variables. It is compiled
// once, at Prepare, from the terms that label the tuples' columns — the
// template's arguments for full tuples of the query predicate, its
// variables alone for a chain plan's answers.
type projection struct {
	ncols int
	keep  []int    // the column of each free variable's first occurrence
	eq    [][2]int // a repeated variable: the two columns must agree
	bound []int    // the non-variable columns, in bound-vector order
}

func newProjection(cols []ast.Term) projection {
	pj := projection{ncols: len(cols)}
	first := make(map[string]int, len(cols))
	for i, c := range cols {
		switch j, seen := first[c.Var]; {
		case !c.IsVar():
			pj.bound = append(pj.bound, i)
		case seen:
			pj.eq = append(pj.eq, [2]int{j, i})
		default:
			first[c.Var] = i
			pj.keep = append(pj.keep, i)
		}
	}
	return pj
}

// tuple is what a projection reads: a full tuple, or an all-pairs answer.
type tuple interface{ ~[]symtab.Sym | ~[2]symtab.Sym }

// project appends the n rows projectRow keeps to cells, one after
// another. A surviving tuple is fully determined by its row, so distinct
// tuples give distinct rows.
func project[T tuple](pj *projection, cells []symtab.Sym, tuples []T, bound []symtab.Sym) (_ []symtab.Sym, n int) {
	cells = slices.Grow(cells, len(tuples)*len(pj.keep))
	for _, t := range tuples {
		var ok bool
		if cells, ok = projectRow(pj, cells, t, bound); ok {
			n++
		}
	}
	return cells, n
}

// projectRow appends t's row to cells — each free variable at its first
// occurrence — unless t disagrees with the bound vector (one value per
// non-variable column) or breaks a repeated variable's equality.
func projectRow[T tuple](pj *projection, cells []symtab.Sym, t T, bound []symtab.Sym) ([]symtab.Sym, bool) {
	if len(t) != pj.ncols {
		return cells, false
	}
	for k, i := range pj.bound {
		if t[i] != bound[k] {
			return cells, false
		}
	}
	for _, e := range pj.eq {
		if t[e[0]] != t[e[1]] {
			return cells, false
		}
	}
	for _, i := range pj.keep {
		cells = append(cells, t[i])
	}
	return cells, true
}
