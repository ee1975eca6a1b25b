// Package adorn constructs adorned programs: given a linear Datalog
// program (at most one derived literal per rule body) and a query, it
// computes how the query's bindings propagate sideways through each rule,
// producing one adorned rule per (rule, reachable adornment) pair.
//
// The sideways information passing follows Section 4 of the paper exactly:
// for a rule
//
//	p(X̄) :- b1(Ȳ1), ..., bn(Ȳn) [, q(Z̄)]
//
// the base literals are split into an "in" group b1..bi and an "out" group
// b(i+1)..bn around the derived literal such that conditions (1)–(5) hold:
// the groups are not directly connected, the in group is a connected set,
// the in group is connected to a bound head variable, and the derived
// literal's adornment binds exactly the argument positions filled by
// constants, by variables of the in group, or by bound head variables.
//
// The package also implements the paper's chain-program check (the
// condition of Lemma 6): in every adorned rule the variables of the in
// group must be disjoint from the head variables designated free —
// otherwise the transformed binary-chain program may compute a strict
// superset of the original relation.
package adorn

import (
	"fmt"
	"strings"

	"chainlog/internal/analysis"
	"chainlog/internal/ast"
)

// Pred is an adorned predicate p^a.
type Pred struct {
	Name  string
	Adorn string // over {b, f}, one per argument position
}

// Key returns the unique name used for the adorned predicate (e.g.
// "sg" with adornment "bf" → "sg_bf").
func (p Pred) Key() string { return p.Name + "_" + p.Adorn }

func (p Pred) String() string { return p.Name + "^" + p.Adorn }

// Rule is one adorned rule.
type Rule struct {
	// ID is a stable identifier r1, r2, ... in generation order, used to
	// name the base-r/in-r/out-r predicates of the transformation.
	ID string
	// Head is the original head literal; HeadAdorn its adornment.
	Head      ast.Literal
	HeadAdorn string
	// Derived is the single derived body literal, or nil for a base-only
	// rule; DerivedAdorn is its adornment.
	Derived      *ast.Literal
	DerivedAdorn string
	// In and Out are the base literals (and attached built-ins) before
	// and after the derived literal under the information-passing split.
	// For base-only rules the entire body is in AllBody instead.
	In, Out []ast.Literal
	// AllBody is the full body for base-only rules.
	AllBody []ast.Literal
}

// HeadPred returns the adorned head predicate.
func (r Rule) HeadPred() Pred { return Pred{Name: r.Head.Pred, Adorn: r.HeadAdorn} }

// DerivedPred returns the adorned derived body predicate; ok is false for
// base-only rules.
func (r Rule) DerivedPred() (Pred, bool) {
	if r.Derived == nil {
		return Pred{}, false
	}
	return Pred{Name: r.Derived.Pred, Adorn: r.DerivedAdorn}, true
}

// Program is the adorned program generated from a query.
type Program struct {
	// Query is the adorned query predicate.
	Query Pred
	// QueryLit is the original query literal.
	QueryLit ast.Query
	// Rules lists all generated adorned rules.
	Rules []Rule
	// ByPred indexes rules by adorned head predicate key.
	ByPred map[string][]int
	// Derived is the set of derived predicate names in the original
	// program.
	Derived map[string]bool
}

// Adorn generates the adorned program for prog and query. It requires a
// linear program in the special form with at most one derived literal per
// body, and a derived query predicate.
func Adorn(prog *ast.Program, q ast.Query) (*Program, error) {
	info := analysis.Analyze(prog)
	if !info.SingleDerivedBody() {
		return nil, fmt.Errorf("adorn: program has a rule with more than one derived body literal")
	}
	if err := analysis.CheckSafety(prog); err != nil {
		return nil, fmt.Errorf("adorn: %w", err)
	}
	if !info.Derived[q.Pred] {
		return nil, fmt.Errorf("adorn: query predicate %s is not derived", q.Pred)
	}
	ar, err := prog.Arities()
	if err != nil {
		return nil, fmt.Errorf("adorn: %w", err)
	}
	if ar[q.Pred] != q.Arity() {
		return nil, fmt.Errorf("adorn: query arity %d does not match predicate %s/%d", q.Arity(), q.Pred, ar[q.Pred])
	}

	ap := &Program{
		Query:    Pred{Name: q.Pred, Adorn: q.Adornment()},
		QueryLit: q,
		ByPred:   make(map[string][]int),
		Derived:  info.Derived,
	}

	seen := map[string]bool{ap.Query.Key(): true}
	work := []Pred{ap.Query}
	nextID := 0
	for len(work) > 0 {
		pa := work[0]
		work = work[1:]
		for _, r := range prog.RulesFor(pa.Name) {
			nextID++
			adorned, err := adornRule(info, r, pa, fmt.Sprintf("r%d", nextID))
			if err != nil {
				return nil, err
			}
			ap.ByPred[pa.Key()] = append(ap.ByPred[pa.Key()], len(ap.Rules))
			ap.Rules = append(ap.Rules, adorned)
			if dp, ok := adorned.DerivedPred(); ok && !seen[dp.Key()] {
				seen[dp.Key()] = true
				work = append(work, dp)
			}
		}
	}
	return ap, nil
}

// adornRule applies the information-passing split to one rule under the
// head adornment pa.Adorn.
func adornRule(info *analysis.Info, r ast.Rule, pa Pred, id string) (Rule, error) {
	if len(pa.Adorn) != r.Head.Arity() {
		return Rule{}, fmt.Errorf("adorn: adornment %s does not match arity of %s", pa.Adorn, r.Head.Pred)
	}
	out := Rule{ID: id, Head: r.Head, HeadAdorn: pa.Adorn}

	// Locate the (unique) derived literal; everything else participates
	// in the connectivity analysis. Built-ins take part in connectivity —
	// in the flight example is_deptime(DT1) is connected to flight(...)
	// only through the comparison AT1 < DT1.
	var rest []ast.Literal
	for _, l := range r.Body {
		if !l.IsBuiltin() && info.Derived[l.Pred] {
			lit := l
			out.Derived = &lit
			continue
		}
		rest = append(rest, l)
	}

	boundHead := boundHeadVars(r.Head, pa.Adorn)

	if out.Derived == nil {
		out.AllBody = rest
		return out, nil
	}

	// Connected components of the remaining body literals under shared
	// variables. The in group collects the components connected to a
	// bound head variable (conditions 2–4); the paper states condition
	// (3) for a single component — the common case of one bound argument
	// — and we generalize to every in-group component being connected to
	// a bound variable, which is what queries binding several arguments
	// (e.g. sg(a, b)) produce.
	comp := components(rest)
	var in, outLits []ast.Literal
	for _, lits := range comp {
		touched := false
		for _, l := range lits {
			if touchesVars(l, boundHead) {
				touched = true
				break
			}
		}
		if touched {
			in = append(in, lits...)
		} else {
			outLits = append(outLits, lits...)
		}
	}

	// Bindings originate from in-group atoms and bound head positions;
	// built-ins filter but never bind.
	inVars := map[string]bool{}
	for _, l := range in {
		if l.IsBuiltin() {
			continue
		}
		for _, a := range l.Args {
			if a.IsVar() {
				inVars[a.Var] = true
			}
		}
	}
	for v := range boundHead {
		inVars[v] = true
	}

	// A built-in placed in the in group whose variables are not all bound
	// there cannot run during the in-r join; demote it to the out group.
	kept := in[:0]
	for _, l := range in {
		if l.IsBuiltin() && !allVarsIn(l, inVars) {
			outLits = append(outLits, l)
			continue
		}
		kept = append(kept, l)
	}
	in = kept

	// The derived literal's adornment (condition 5).
	var d strings.Builder
	for _, a := range out.Derived.Args {
		if !a.IsVar() || inVars[a.Var] {
			d.WriteByte('b')
		} else {
			d.WriteByte('f')
		}
	}
	out.DerivedAdorn = d.String()

	out.In = in
	out.Out = outLits
	return out, nil
}

// ChainCheck verifies the paper's chain-program condition: in every
// adorned rule with a derived literal, the variables of the in group are
// all different from the head variables designated free. It returns a
// descriptive error for the first violating rule.
func (ap *Program) ChainCheck() error {
	for _, r := range ap.Rules {
		if r.Derived == nil {
			continue
		}
		freeHead := map[string]bool{}
		for i, a := range r.Head.Args {
			if a.IsVar() && r.HeadAdorn[i] == 'f' {
				freeHead[a.Var] = true
			}
		}
		inAtomVars := map[string]bool{}
		for _, l := range r.In {
			if l.IsBuiltin() {
				continue
			}
			for _, a := range l.Args {
				if a.IsVar() {
					inAtomVars[a.Var] = true
				}
			}
		}
		for v := range inAtomVars {
			if freeHead[v] {
				return fmt.Errorf("adorn: not a chain program: rule %s for %s^%s binds free head variable %s in its in group",
					r.ID, r.Head.Pred, r.HeadAdorn, v)
			}
		}
	}
	return nil
}

// Render formats the adorned program structurally for golden tests.
func (ap *Program) Render() string {
	var b strings.Builder
	for _, r := range ap.Rules {
		b.WriteString(r.ID)
		b.WriteString(": ")
		b.WriteString(r.Head.Pred)
		b.WriteString("^")
		b.WriteString(r.HeadAdorn)
		if r.Derived != nil {
			fmt.Fprintf(&b, " [in=%d derived=%s^%s out=%d]", len(r.In), r.Derived.Pred, r.DerivedAdorn, len(r.Out))
		} else {
			fmt.Fprintf(&b, " [base body=%d]", len(r.AllBody))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// BoundArgs returns the argument subsequence of lit at positions marked
// 'b' in adornment (the paper's X̄^b).
func BoundArgs(lit ast.Literal, adorn string) []ast.Term {
	var out []ast.Term
	for i, a := range lit.Args {
		if adorn[i] == 'b' {
			out = append(out, a)
		}
	}
	return out
}

// FreeArgs returns the argument subsequence at positions marked 'f' (the
// paper's X̄^f).
func FreeArgs(lit ast.Literal, adorn string) []ast.Term {
	var out []ast.Term
	for i, a := range lit.Args {
		if adorn[i] == 'f' {
			out = append(out, a)
		}
	}
	return out
}

func boundHeadVars(head ast.Literal, adorn string) map[string]bool {
	out := map[string]bool{}
	for i, a := range head.Args {
		if a.IsVar() && adorn[i] == 'b' {
			out[a.Var] = true
		}
	}
	return out
}

// components groups atoms into connected components under the "directly
// connected" (shared variable) relation, transitively.
func components(atoms []ast.Literal) [][]ast.Literal {
	n := len(atoms)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if atoms[i].SharesVar(atoms[j]) {
				union(i, j)
			}
		}
	}
	groups := map[int][]ast.Literal{}
	var order []int
	for i, a := range atoms {
		r := find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], a)
	}
	out := make([][]ast.Literal, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

func touchesVars(l ast.Literal, vars map[string]bool) bool {
	for _, a := range l.Args {
		if a.IsVar() && vars[a.Var] {
			return true
		}
	}
	return false
}

func allVarsIn(l ast.Literal, vars map[string]bool) bool {
	for _, a := range l.Args {
		if a.IsVar() && !vars[a.Var] {
			return false
		}
	}
	return true
}
