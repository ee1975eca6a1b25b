// Package equations implements Lemma 1 of the paper: the transformation of
// a linear binary-chain Datalog program into a system of equations
//
//	p = e_p
//
// with exactly one equation per derived predicate, where each right-hand
// side is an expression over predicate symbols with operators ∪, · and *.
// The transformation is the paper's nine-step algorithm: it is "nothing
// more than a simple way to transform a regular grammar into an equivalent
// regular expression", performed SCC by SCC, with Arden's-lemma
// elimination of direct left and right recursion (step 4) and substitution
// of resolved predicates (steps 5 and 7). Nonregular predicates (such as
// q2 = r2 ∪ a·q2·rl in the paper's example) keep a single direct
// recursion in their equation; the evaluator handles those occurrences by
// expanding the automaton hierarchy EM(p,i).
//
// Step 4 also solves a closure term p·b·p (b free of p) beside one-sided
// recursion, so some nonlinear programs transform too: p = e ∪ p·b·p is
// p = e·(b·e)*, and tcn = e ∪ tcn·tcn is tcn = e·e*. A nonlinear rule
// must be such a closure rule, over a predicate recursive through itself
// alone, and the final system must have the shape a linear program's has
// (no union term with two occurrences from the equation's component); a
// two-sided nonlinear p = e ∪ a·p·b ∪ p·p is not regular and is refused.
package equations

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"chainlog/internal/analysis"
	"chainlog/internal/ast"
	"chainlog/internal/expr"
)

// System is the equation system produced by Transform.
type System struct {
	// Order lists the derived predicates in first-appearance order.
	Order []string
	// Eq maps each derived predicate to its right-hand side.
	Eq map[string]expr.Expr
	// Derived is the set of derived predicate names; predicate symbols in
	// right-hand sides not in this set are base relations.
	Derived map[string]bool
	// InitialMutual maps each derived predicate to its mutual-recursion
	// component index in the *initial* system (step 2), the reference
	// point for step 5.
	InitialMutual map[string]int
	// Iterations is the number of main-loop iterations the transformation
	// performed (for reporting).
	Iterations int
}

// MaxIterations bounds the step 3–8 loop; the algorithm terminates because
// every productive iteration reduces the count of distinct derived
// predicates in right-hand sides, so this is a defensive backstop only.
const MaxIterations = 10000

// transforms counts Transform calls process-wide; tests assert plan
// reuse ("compile once, bind many") by checking it stays flat across
// prepared runs.
var transforms atomic.Int64

// TransformCount returns the total number of Transform calls so far.
func TransformCount() int64 { return transforms.Load() }

// Transform runs the Lemma 1 algorithm. The program must be a binary-chain
// program whose every rule is linear or a closure rule p :- p, B…, p
// with p recursive through itself alone. The final system must satisfy
// Lemma 1's statement (6) — no union term of the equation for p holds two
// occurrences of predicates mutually recursive to p — which a linear
// program's always does, and a nonlinear one's does when step 4's closure
// identities solve it (tcn = e ∪ tcn·tcn becomes tcn = e·e*).
func Transform(prog *ast.Program) (*System, error) {
	transforms.Add(1)
	info := analysis.Analyze(prog)
	if !info.BinaryChainProgram() {
		return nil, fmt.Errorf("equations: program is not a binary-chain program")
	}
	if !closureRulesOnly(info) {
		return nil, fmt.Errorf("equations: program is not linear")
	}

	sys := &System{
		Eq:            make(map[string]expr.Expr),
		Derived:       info.Derived,
		InitialMutual: make(map[string]int),
	}

	// Step 1: initial equations p = e1 ∪ ... ∪ em, ei the concatenation
	// of the body predicates of the i-th rule for p (Ident for the empty
	// body, i.e. the rule p(X,X) :- ).
	for _, r := range prog.Rules {
		p := r.Head.Pred
		if _, ok := sys.Eq[p]; !ok {
			sys.Order = append(sys.Order, p)
			sys.Eq[p] = expr.Empty{}
		}
		factors := make([]expr.Expr, 0, len(r.Body))
		for _, l := range r.Body {
			factors = append(factors, expr.Pred{Name: l.Pred})
		}
		sys.Eq[p] = expr.NewUnion(sys.Eq[p], expr.NewConcat(factors...))
	}

	// Step 2: mutual-recursion components of the initial system.
	initComp := sys.components()
	for p, c := range initComp {
		sys.InitialMutual[p] = c
	}

	// Steps 3–8, repeated until nothing changes (step 9).
	prev := ""
	for iter := 0; ; iter++ {
		if iter > MaxIterations {
			return nil, fmt.Errorf("equations: transformation did not converge after %d iterations", MaxIterations)
		}
		sys.Iterations = iter
		cur := sys.Render()
		if cur == prev {
			break
		}
		prev = cur

		// Steps 3+4: group one-sided recursive union terms and eliminate
		// direct left/right recursion with Arden's lemma.
		for _, p := range sys.Order {
			sys.Eq[p] = arden(p, sys.Eq[p])
		}

		// Step 5: substitute away predicates whose RHS no longer contains
		// anything mutually recursive to them in the initial system.
		for _, p := range sys.Order {
			e := sys.Eq[p]
			if containsInitialMutual(sys, p, e) {
				continue
			}
			for _, q := range sys.Order {
				if q == p {
					continue
				}
				sys.Eq[q] = expr.Substitute(sys.Eq[q], p, e)
			}
		}

		// Step 6: recompute mutual-recursion components of the current
		// system.
		comp := sys.components()
		groups := make(map[int][]string)
		for _, p := range sys.Order {
			groups[comp[p]] = append(groups[comp[p]], p)
		}

		// Step 7: within each maximal mutually recursive set, eliminate
		// one predicate whose equation does not mention itself,
		// preferring the one with the fewest derived-predicate
		// occurrences (the paper's suggested heuristic).
		for _, members := range sortedGroups(groups) {
			if len(members) < 2 {
				continue
			}
			best := ""
			bestCount := 0
			for _, p := range members {
				if expr.ContainsPred(sys.Eq[p], p) {
					continue
				}
				n := derivedOccurrences(sys, sys.Eq[p])
				if best == "" || n < bestCount {
					best, bestCount = p, n
				}
			}
			if best == "" {
				continue
			}
			for _, q := range members {
				if q == best {
					continue
				}
				sys.Eq[q] = expr.Substitute(sys.Eq[q], best, sys.Eq[best])
			}
		}

		// Step 8: distribute composition over union — but only over union
		// subexpressions that contain a predicate mutually recursive to
		// the left-hand side, so step 4 can see the recursion at the
		// edges of union terms on the next iteration. Distributing
		// non-recursive unions is not only unnecessary, it would break
		// Lemma 1 statement (6) by duplicating the remaining recursive
		// occurrence.
		comp = sys.components()
		for _, p := range sys.Order {
			sys.Eq[p] = sys.distributeMutual(sys.Eq[p], comp, comp[p])
		}
	}
	if !sys.linearTerms() {
		return nil, fmt.Errorf("equations: program is not linear")
	}
	return sys, nil
}

// closureRulesOnly is the syntactic gate in front of the step 3–8 loop:
// every rule is linear, or is a closure rule p :- p, B…, p whose head is
// recursive through itself alone (its dependency component is {p}, so B
// holds nothing mutual to p). Any other nonlinear recursion is refused
// here, in O(rules): substituting an equation with two occurrences of a
// mutual predicate into another doubles the occurrences every iteration,
// and the loop would grow exponentially before the final check refused it.
func closureRulesOnly(info *analysis.Info) bool {
	for _, r := range info.Program.Rules {
		if info.LinearRule(r) {
			continue
		}
		p, body := r.Head.Pred, r.Body
		if len(info.Groups[info.Comp[p]]) > 1 || body[0].Pred != p || body[len(body)-1].Pred != p {
			return false
		}
		for _, l := range body[1 : len(body)-1] {
			if l.Pred == p {
				return false
			}
		}
	}
	return true
}

// linearTerms reports Lemma 1's statement (6) for the final system: no
// union term of an equation for p holds two occurrences of predicates
// mutually recursive to p.
func (s *System) linearTerms() bool {
	comp := s.components()
	for _, p := range s.Order {
		for _, t := range expr.UnionTerms(s.Eq[p]) {
			n := 0
			expr.Walk(t, func(x expr.Expr) {
				if pr, ok := x.(expr.Pred); ok && s.Derived[pr.Name] && comp[pr.Name] == comp[p] {
					n++
				}
			})
			if n > 1 {
				return false
			}
		}
	}
	return true
}

// arden performs steps 3 and 4 on a single equation: it partitions the
// union terms of rhs into non-recursive terms e0, left-recursive terms
// p·e (eliminable when all recursion is left), right-recursive terms e·p
// and closure terms p·b·p (b free of p, possibly id), and applies
//
//	p = e0 ∪ p·e1           ⇒  p = e0·e1*
//	p = e0 ∪ e1·p           ⇒  p = e1*·e0
//	p = e0 ∪ p·e1 ∪ p·b·p   ⇒  p = e0·(e1 ∪ b·e0)*
//	p = e0 ∪ e1·p ∪ p·b·p   ⇒  p = (e1 ∪ e0·b)*·e0
//
// The last two are least solutions by the same induction as Arden's: the
// right side is a fixpoint, and each of its words, split at the e0 blocks,
// lies in every solution. Terms with two-sided or nested occurrences of p
// are left in place (nonregular recursion, resolved by the evaluator's EM
// hierarchy), and so is an equation mixing left and right recursion. A
// bare term p is dropped: the least solution of p = e0 ∪ p is p = e0.
func arden(p string, rhs expr.Expr) expr.Expr {
	terms := expr.UnionTerms(rhs)
	var e0, leftTails, rightHeads, closures, stuck []expr.Expr
	for _, t := range terms {
		if !expr.ContainsPred(t, p) {
			e0 = append(e0, t)
			continue
		}
		if pr, ok := t.(expr.Pred); ok && pr.Name == p {
			continue // degenerate p = ... ∪ p
		}
		factors := expr.ConcatTerms(t)
		if len(factors) >= 2 {
			first, last := factors[0], factors[len(factors)-1]
			rest := expr.NewConcat(factors[1:]...)
			if isPred(first, p) && !expr.ContainsPred(rest, p) {
				leftTails = append(leftTails, rest)
				continue
			}
			init := expr.NewConcat(factors[:len(factors)-1]...)
			if isPred(last, p) && !expr.ContainsPred(init, p) {
				rightHeads = append(rightHeads, init)
				continue
			}
			mid := expr.NewConcat(factors[1 : len(factors)-1]...)
			if isPred(first, p) && isPred(last, p) && !expr.ContainsPred(mid, p) {
				closures = append(closures, mid)
				continue
			}
		}
		stuck = append(stuck, t)
	}
	if len(stuck) > 0 || (len(leftTails) > 0 && len(rightHeads) > 0) {
		// Mixed or two-sided recursion: not eliminable here.
		return rhs
	}
	base := expr.NewUnion(e0...)
	for _, b := range closures {
		if len(rightHeads) > 0 {
			rightHeads = append(rightHeads, expr.NewConcat(base, b))
		} else {
			leftTails = append(leftTails, expr.NewConcat(b, base))
		}
	}
	switch {
	case len(leftTails) > 0:
		return expr.NewConcat(base, expr.NewStar(expr.NewUnion(leftTails...)))
	case len(rightHeads) > 0:
		return expr.NewConcat(expr.NewStar(expr.NewUnion(rightHeads...)), base)
	}
	return base
}

func isPred(e expr.Expr, name string) bool {
	p, ok := e.(expr.Pred)
	return ok && p.Name == name
}

// components computes the mutual-recursion components of the current
// system: SCCs of the graph with an edge p→q whenever q (derived) occurs
// in e_p.
func (s *System) components() map[string]int {
	id := make(map[string]int32, len(s.Order))
	for i, p := range s.Order {
		id[p] = int32(i)
	}
	succ := make([][]int32, len(s.Order))
	for i, p := range s.Order {
		for _, q := range expr.Preds(s.Eq[p]) {
			if j, derived := id[q]; derived {
				succ[i] = append(succ[i], j)
			}
		}
	}
	comp := analysis.SCC(len(succ), func(v int) []int32 { return succ[v] }, nil)
	byName := make(map[string]int, len(s.Order))
	for i, p := range s.Order {
		byName[p] = int(comp[i])
	}
	return byName
}

// containsInitialMutual reports whether e contains a predicate that was
// mutually recursive to p in the initial system (step 5's condition).
func containsInitialMutual(s *System, p string, e expr.Expr) bool {
	cp, ok := s.InitialMutual[p]
	if !ok {
		return false
	}
	found := false
	expr.Walk(e, func(x expr.Expr) {
		pr, isP := x.(expr.Pred)
		if !isP || !s.Derived[pr.Name] {
			return
		}
		if cq, ok := s.InitialMutual[pr.Name]; ok && cq == cp {
			// Same initial component: mutually recursive to p in the
			// initial system iff the component has size >1 or it is p
			// itself with a self-loop; both cases block elimination, and
			// for a singleton non-recursive p the RHS cannot mention p
			// anyway, so the component test suffices.
			found = true
		}
	})
	return found
}

// distributeMutual implements step 8: inside e, any composition with a
// union factor containing a predicate of component pcomp is expanded over
// that factor's alternatives; union factors without such predicates stay
// folded.
func (s *System) distributeMutual(e expr.Expr, comp map[string]int, pcomp int) expr.Expr {
	hasMutual := func(x expr.Expr) bool {
		found := false
		expr.Walk(x, func(n expr.Expr) {
			if pr, ok := n.(expr.Pred); ok && s.Derived[pr.Name] && comp[pr.Name] == pcomp {
				found = true
			}
		})
		return found
	}
	switch v := e.(type) {
	case expr.Union:
		terms := make([]expr.Expr, len(v.Terms))
		for i, t := range v.Terms {
			terms[i] = s.distributeMutual(t, comp, pcomp)
		}
		return expr.NewUnion(terms...)
	case expr.Concat:
		// Expand only union factors that contain a mutually recursive
		// predicate; other factors are kept as single choices.
		alts := [][]expr.Expr{nil}
		for _, factor := range v.Terms {
			f := s.distributeMutual(factor, comp, pcomp)
			choices := []expr.Expr{f}
			if u, ok := f.(expr.Union); ok && hasMutual(f) {
				choices = u.Terms
			}
			if _, ok := f.(expr.Empty); ok {
				return expr.Empty{}
			}
			next := make([][]expr.Expr, 0, len(alts)*len(choices))
			for _, seq := range alts {
				for _, c := range choices {
					ns := make([]expr.Expr, len(seq), len(seq)+1)
					copy(ns, seq)
					ns = append(ns, c)
					next = append(next, ns)
				}
			}
			alts = next
		}
		terms := make([]expr.Expr, len(alts))
		for i, seq := range alts {
			terms[i] = expr.NewConcat(seq...)
		}
		return expr.NewUnion(terms...)
	case expr.Star:
		return expr.NewStar(s.distributeMutual(v.E, comp, pcomp))
	case expr.Inverse:
		return expr.NewInverse(s.distributeMutual(v.E, comp, pcomp))
	}
	return e
}

func derivedOccurrences(s *System, e expr.Expr) int {
	n := 0
	expr.Walk(e, func(x expr.Expr) {
		if pr, ok := x.(expr.Pred); ok && s.Derived[pr.Name] {
			n++
		}
	})
	return n
}

func sortedGroups(groups map[int][]string) [][]string {
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([][]string, 0, len(keys))
	for _, k := range keys {
		members := groups[k]
		sort.Strings(members)
		out = append(out, members)
	}
	return out
}

// Render formats the system deterministically, one equation per line in
// Order, for golden tests and debugging.
func (s *System) Render() string {
	var b strings.Builder
	for _, p := range s.Order {
		b.WriteString(p)
		b.WriteString(" = ")
		b.WriteString(s.Eq[p].String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Reverse returns the system of the inverse relations: every equation
// p = e_p becomes p = rev(e_p), compositions reversed and base predicates
// inverted, while derived predicates stay references — to their own
// reversed equations. The paper evaluates p(X, b) "by applying the
// algorithm to the query r(b, Y), where r is the inverse of p": that is
// the query p(b, Y) over this system.
func (s *System) Reverse() *System {
	rev := *s
	rev.Eq = make(map[string]expr.Expr, len(s.Eq))
	for p, e := range s.Eq {
		rev.Eq[p] = expr.Reverse(e, s.Derived)
	}
	return &rev
}

// EquationFor returns the right-hand side for p.
func (s *System) EquationFor(p string) (expr.Expr, bool) {
	e, ok := s.Eq[p]
	return e, ok
}

// IsRegularFor reports whether the equation for p and all equations it
// references contain no derived predicates — the regular case, in which
// the evaluation algorithm needs a single iteration (Theorem 3).
func (s *System) IsRegularFor(p string) bool {
	e, ok := s.Eq[p]
	if !ok {
		return false
	}
	for _, q := range expr.Preds(e) {
		if s.Derived[q] {
			return false
		}
	}
	return true
}

// LinearShape is the decomposition of an equation of the linear form
// p = E0 ∪ E1·p·E2 used by Theorem 4, the counting and Henschen–Naqvi
// methods, and the cyclic-data iteration bound. E1 or E2 may be Ident for
// left-/right-linear shapes.
type LinearShape struct {
	E0, E1, E2 expr.Expr
}

// LinearDecompose attempts to view e_p as p = E0 ∪ E1·p·E2 with exactly
// one recursive union term containing exactly one occurrence of p and no
// other derived predicates.
func (s *System) LinearDecompose(p string) (LinearShape, bool) {
	e, ok := s.Eq[p]
	if !ok {
		return LinearShape{}, false
	}
	var e0 []expr.Expr
	var rec []expr.Expr
	for _, t := range expr.UnionTerms(e) {
		if expr.ContainsPred(t, p) {
			rec = append(rec, t)
		} else {
			e0 = append(e0, t)
		}
	}
	if len(rec) != 1 || expr.CountPred(rec[0], p) != 1 {
		return LinearShape{}, false
	}
	factors := expr.ConcatTerms(rec[0])
	at := -1
	for i, f := range factors {
		if isPred(f, p) {
			at = i
			break
		}
	}
	if at == -1 {
		return LinearShape{}, false // p occurs nested under * or ~
	}
	shape := LinearShape{
		E0: expr.NewUnion(e0...),
		E1: expr.NewConcat(factors[:at]...),
		E2: expr.NewConcat(factors[at+1:]...),
	}
	// The decomposition is usable by the specialized methods only when
	// E0, E1, E2 are themselves free of derived predicates.
	for _, part := range []expr.Expr{shape.E0, shape.E1, shape.E2} {
		for _, q := range expr.Preds(part) {
			if s.Derived[q] {
				return LinearShape{}, false
			}
		}
	}
	return shape, true
}
