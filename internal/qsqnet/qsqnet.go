// Package qsqnet compiles Query-Subquery Nets (Nguyen & Cao's QSQ-net
// formulation of QSQR) for arbitrary safe Datalog: a goal-directed,
// memoizing strategy that sits between the paper's chain traversal
// (fast, chain subset only) and the whole-program fixpoint (general,
// binding-blind). The package compiles the net; bottomup evaluates it.
//
// The net is compiled once per (program, query adornment) into a
// bottomup.Program: one node per adorned intensional predicate, holding
// the predicate's rules with a fixed bound-first evaluation order, the
// statically known bound-argument mask of every body step, and — for
// intensional body steps — the node the subqueries the step generates
// feed. Nodes are discovered by breadth-first search over (predicate,
// adornment) pairs from the query's own adornment, so only binding
// patterns the evaluation can actually reach are compiled; the set is
// finite (bounded by 2^arity per predicate) and the compiled Net depends
// only on the rules, never on the facts — it is the shareable part of a
// prepared plan.
//
// bottomup's evaluator memoizes the input table of every node (the
// bound-argument tuples of the subqueries it was asked) and the answer
// relation of every intensional predicate, shared across adornments —
// every entry is a true fact, so sharing only prunes repeated work.
// Termination is by subsumption under a fixed adornment: a subquery or
// answer equal to a memoized one is not reprocessed, and both families
// of tables are finite over the active domain. New answers propagate
// semi-naively, each round re-evaluating only the (rule, input, pinned
// step) combinations whose pinned intensional step has answers added
// since the previous round.
//
// Rule bodies are compiled by bottomup's rule-body join (join.go) with
// the adornment's bound head variables bound on entry and derived atoms
// deferred on ties: opening one spawns a subquery, so it waits for an
// extensional atom that might bind more of it.
package qsqnet

import (
	"context"
	"fmt"
	"math/bits"
	"strings"

	"chainlog/internal/ast"
	"chainlog/internal/bottomup"
	"chainlog/internal/edb"
	"chainlog/internal/symtab"
)

// Stats reports the work one evaluation performed, in the same abstract
// units the other strategies use; Subqueries counts the distinct
// (adorned predicate, bound tuple) subqueries, the goal included.
type Stats = bottomup.Stats

// Net is the compiled query-subquery net for one program and one root
// adornment. It is immutable after Compile and safe for concurrent use.
type Net struct {
	pred  string
	adorn string
	prog  *bottomup.Program
}

// Pred and Adornment identify the net's root goal.
func (n *Net) Pred() string      { return n.pred }
func (n *Net) Adornment() string { return n.adorn }

// Nodes reports the number of adorned-predicate nodes the net compiled
// (explain output).
func (n *Net) Nodes() int { return n.prog.Nodes() }

// Program is the net as bottomup runs it: a run's input is the goal's
// bound arguments, its answers the root predicate's derived tuples.
func (n *Net) Program() *bottomup.Program { return n.prog }

// Compile builds the net for a query over pred with the given b/f
// adornment. The program's facts play no part: the net depends only on
// the rules, so a compiled net survives fact churn.
func Compile(prog *ast.Program, pred string, adornment string) (*Net, error) {
	arities, err := prog.Arities()
	if err != nil {
		return nil, fmt.Errorf("qsqnet: %w", err)
	}
	derived := prog.DerivedSet()
	if !derived[pred] {
		return nil, fmt.Errorf("qsqnet: %s is not an intensional predicate", pred)
	}
	if ar, ok := arities[pred]; ok && ar != len(adornment) {
		return nil, fmt.Errorf("qsqnet: adornment %s does not match %s/%d", adornment, pred, ar)
	}
	// nodes are in discovery order, adorns holds each one's adornment and
	// byKey its index by adorned predicate; nodes[i+1:] are the ones the
	// breadth-first search has yet to compile.
	var nodes []bottomup.Node
	var adorns []string
	var rules []bottomup.Rule
	byKey := map[string]int{}
	node := func(pred, adorn string) int {
		key := pred + "^" + adorn
		if i, ok := byKey[key]; ok {
			return i
		}
		byKey[key] = len(nodes)
		nodes = append(nodes, bottomup.Node{Pred: pred, Arity: arities[pred], In: strings.Count(adorn, "b")})
		adorns = append(adorns, adorn)
		return len(nodes) - 1
	}
	node(pred, adornment)
	for i := 0; i < len(nodes); i++ {
		for _, r := range prog.RulesFor(nodes[i].Pred) {
			cr, subs, err := compileRule(r, adorns[i], derived)
			if err != nil {
				return nil, err
			}
			if cr == nil {
				// Dead rule (not range-restricted, or an unsatisfiable
				// built-in): derives nothing under bottom-up semantics,
				// so the net drops it for answer-equivalence with the
				// general strategies.
				continue
			}
			cr.Node = i
			for _, pos := range cr.Pins {
				cr.Feeds[pos] = node(r.Body[pos].Pred, subs[pos])
			}
			rules = append(rules, *cr)
		}
	}
	return &Net{pred: pred, adorn: adornment, prog: bottomup.NewProgram(nodes, rules, 1)}, nil
}

// compileRule compiles a rule under a head adornment, pinning its
// intensional steps in evaluation order, and returns beside it the
// adornment of the subqueries each intensional literal generates, by body
// position. It returns a nil rule (no error) for a rule bottom-up
// evaluation could never fire (see bottomup.CompileRule).
func compileRule(r ast.Rule, adorn string, derived map[string]bool) (*bottomup.Rule, []string, error) {
	if len(r.Head.Args) != len(adorn) {
		return nil, nil, fmt.Errorf("qsqnet: rule head %s/%d under adornment %s", r.Head.Pred, len(r.Head.Args), adorn)
	}
	var boundHead []ast.Term
	for i, c := range adorn {
		switch c {
		case 'b':
			boundHead = append(boundHead, r.Head.Args[i])
		case 'f':
			// Free head position: nothing to bind.
		default:
			return nil, nil, fmt.Errorf("qsqnet: bad adornment %q", adorn)
		}
	}
	body := bottomup.CompileRule(r, boundHead, -1, derived)
	if body == nil {
		return nil, nil, nil
	}
	cr := &bottomup.Rule{Body: body, In: body.Refs(boundHead), Feeds: make([]int, len(r.Body))}
	subs := make([]string, len(r.Body))
	for pos := range cr.Feeds {
		cr.Feeds[pos] = -1
	}
	for _, s := range body.Steps {
		if !derived[s.Pred] {
			continue
		}
		b := make([]byte, len(s.Args))
		for i := range s.Args {
			if s.Mask&(1<<uint(i)) != 0 {
				b[i] = 'b'
			} else {
				b[i] = 'f'
			}
		}
		cr.Pins = append(cr.Pins, s.Pos)
		subs[s.Pos] = string(b)
	}
	return cr, subs, nil
}

// Eval answers the net's goal for one bound-argument vector (one value
// per 'b' in the root adornment, in position order), against the live
// extensional store, on tables of its own. It returns every full tuple of
// the root predicate consistent with the bound arguments. The context is
// polled throughout; on cancellation the error wraps context.Cause.
func (n *Net) Eval(ctx context.Context, store *edb.Store, bound []symtab.Sym) ([][]symtab.Sym, Stats, error) {
	// rootMask selects the goal's bound positions.
	var rootMask uint32
	for i, c := range n.adorn {
		if c == 'b' {
			rootMask |= 1 << uint(i)
		}
	}
	if nb := bits.OnesCount32(rootMask); len(bound) != nb {
		return nil, Stats{}, fmt.Errorf("qsqnet: goal %s^%s expects %d bound arguments, got %d", n.pred, n.adorn, nb, len(bound))
	}
	idb, stats, err := n.prog.Seminaive(ctx, store, bound)
	if err != nil {
		return nil, stats, fmt.Errorf("qsqnet: evaluation canceled: %w", err)
	}
	// The answer relation is shared with recursive subqueries of other
	// bindings, so filter by the goal's own. The rows alias the run's
	// relation, which nothing writes any more.
	var out [][]symtab.Sym
	idb.Relation(n.pred).MatchEach(rootMask, bound, func(row []symtab.Sym) { out = append(out, row) })
	return out, stats, nil
}
