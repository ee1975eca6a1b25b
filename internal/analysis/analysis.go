// Package analysis classifies Datalog programs according to the
// definitions of Section 2 of the paper: recursive and mutually recursive
// predicates (via SCCs of the predicate dependency graph), linear rules
// and programs, binary-chain rules and programs, right-/left-linear rules,
// regular predicates and regular programs. It also performs the safety
// checks the paper assumes (no unsafe built-ins, range-restricted heads).
package analysis

import (
	"fmt"
	"slices"

	"chainlog/internal/ast"
)

// Info is the result of analyzing a program.
type Info struct {
	Program *ast.Program
	// Derived is the set of derived predicate names.
	Derived map[string]bool
	// Comp maps each predicate to its SCC index in the predicate
	// dependency graph (head → body predicate).
	Comp map[string]int
	// Groups lists the SCCs (sorted member names), indexed by component.
	Groups [][]string
	// OnCycle marks predicates lying on a dependency cycle — the paper's
	// recursive predicates.
	OnCycle map[string]bool
}

// Analyze builds the dependency graph and SCC classification.
func Analyze(p *ast.Program) *Info {
	info := &Info{
		Program: p,
		Derived: p.DerivedSet(),
		Comp:    make(map[string]int),
		OnCycle: make(map[string]bool),
	}
	ids := make(map[string]int32)
	var names []string
	var dep [][]int32
	node := func(pred string) int32 {
		id, ok := ids[pred]
		if !ok {
			id = int32(len(names))
			ids[pred] = id
			names = append(names, pred)
			dep = append(dep, nil)
		}
		return id
	}
	for _, r := range p.Rules {
		h := node(r.Head.Pred)
		for _, l := range r.Body {
			if !l.IsBuiltin() {
				b := node(l.Pred)
				dep[h] = append(dep[h], b)
			}
		}
	}
	SCC(len(dep), func(v int) []int32 { return dep[v] }, func(members []int32) {
		group := make([]string, len(members))
		for i, m := range members {
			group[i] = names[m]
			info.Comp[names[m]] = len(info.Groups)
			if len(members) > 1 || slices.Contains(dep[m], m) {
				info.OnCycle[names[m]] = true
			}
		}
		slices.Sort(group)
		info.Groups = append(info.Groups, group)
	})
	return info
}

// Mutual reports whether p and q are mutually recursive in the paper's
// sense: distinct predicates in the same dependency SCC, or a single
// predicate lying on a cycle.
func (i *Info) Mutual(p, q string) bool {
	cp, okp := i.Comp[p]
	cq, okq := i.Comp[q]
	if !okp || !okq {
		return false
	}
	if p == q {
		return i.OnCycle[p]
	}
	return cp == cq
}

// Recursive reports whether predicate p is recursive (mutually recursive
// to itself).
func (i *Info) Recursive(p string) bool { return i.OnCycle[p] }

// RecursiveRule reports whether the rule is recursive: its head predicate
// is mutually recursive to some body predicate.
func (i *Info) RecursiveRule(r ast.Rule) bool {
	for _, l := range r.Body {
		if !l.IsBuiltin() && i.Mutual(r.Head.Pred, l.Pred) {
			return true
		}
	}
	return false
}

// RecursiveProgram reports whether the program contains a recursive rule.
func (i *Info) RecursiveProgram() bool {
	for _, r := range i.Program.Rules {
		if i.RecursiveRule(r) {
			return true
		}
	}
	return false
}

// LinearRule reports whether the body contains at most one literal whose
// predicate is mutually recursive to the head predicate.
func (i *Info) LinearRule(r ast.Rule) bool {
	n := 0
	for _, l := range r.Body {
		if !l.IsBuiltin() && i.Mutual(r.Head.Pred, l.Pred) {
			n++
		}
	}
	return n <= 1
}

// LinearProgram reports whether every rule is linear.
func (i *Info) LinearProgram() bool {
	for _, r := range i.Program.Rules {
		if !i.LinearRule(r) {
			return false
		}
	}
	return true
}

// SingleDerivedBody reports whether every rule body contains at most one
// derived literal — the special form Section 4's transformation assumes.
func (i *Info) SingleDerivedBody() bool {
	for _, r := range i.Program.Rules {
		n := 0
		for _, l := range r.Body {
			if !l.IsBuiltin() && i.Derived[l.Pred] {
				n++
			}
		}
		if n > 1 {
			return false
		}
	}
	return true
}

// BinaryChainRule reports whether r has the form
//
//	p(X1, Xn+1) :- p1(X1,X2), p2(X2,X3), ..., pn(Xn,Xn+1)
//
// with n >= 0 and X1,...,Xn+1 all distinct variables. The degenerate case
// n = 0 is the identity rule p(X, X) :- .
func BinaryChainRule(r ast.Rule) bool {
	if r.Head.Arity() != 2 || !r.Head.Args[0].IsVar() || !r.Head.Args[1].IsVar() {
		return false
	}
	x1, xEnd := r.Head.Args[0].Var, r.Head.Args[1].Var
	if len(r.Body) == 0 {
		return x1 == xEnd
	}
	if x1 == xEnd {
		return false
	}
	cur := x1
	seen := map[string]bool{x1: true}
	for idx, l := range r.Body {
		if l.IsBuiltin() || l.Arity() != 2 || !l.Args[0].IsVar() || !l.Args[1].IsVar() {
			return false
		}
		if l.Args[0].Var != cur {
			return false
		}
		next := l.Args[1].Var
		if idx == len(r.Body)-1 {
			if next != xEnd {
				return false
			}
		} else {
			if seen[next] || next == xEnd {
				return false
			}
		}
		seen[next] = true
		cur = next
	}
	return true
}

// BinaryChainProgram reports whether every predicate is binary and every
// rule is a binary-chain rule.
func (i *Info) BinaryChainProgram() bool {
	ar, err := i.Program.Arities()
	if err != nil {
		return false
	}
	for _, a := range ar {
		if a != 2 {
			return false
		}
	}
	for _, r := range i.Program.Rules {
		if !BinaryChainRule(r) {
			return false
		}
	}
	return true
}

// RightLinearRule reports whether in the binary-chain rule
// p(...) :- p1,...,pn none of p1..p(n-1) is mutually recursive to p
// (recursion only in the last position).
func (i *Info) RightLinearRule(r ast.Rule) bool {
	p := r.Head.Pred
	for k, l := range r.Body {
		if k == len(r.Body)-1 {
			break
		}
		if !l.IsBuiltin() && i.Mutual(p, l.Pred) {
			return false
		}
	}
	return true
}

// LeftLinearRule reports whether none of p2..pn is mutually recursive to
// the head (recursion only in the first position).
func (i *Info) LeftLinearRule(r ast.Rule) bool {
	p := r.Head.Pred
	for k, l := range r.Body {
		if k == 0 {
			continue
		}
		if !l.IsBuiltin() && i.Mutual(p, l.Pred) {
			return false
		}
	}
	return true
}

// RegularPred reports whether derived predicate p is regular: all rules
// for predicates mutually recursive to p are right-linear, or all are
// left-linear. (The rules examined are those whose head lies in p's
// mutual-recursion set, including p's own rules.)
func (i *Info) RegularPred(p string) bool {
	group := i.groupOf(p)
	allRight, allLeft := true, true
	for _, r := range i.Program.Rules {
		if !inGroup(group, r.Head.Pred) {
			continue
		}
		if !i.RightLinearRule(r) {
			allRight = false
		}
		if !i.LeftLinearRule(r) {
			allLeft = false
		}
	}
	return allRight || allLeft
}

// RegularProgram reports whether the binary-chain program is regular: all
// derived predicates are regular.
func (i *Info) RegularProgram() bool {
	for p := range i.Derived {
		if !i.RegularPred(p) {
			return false
		}
	}
	return true
}

func (i *Info) groupOf(p string) []string {
	if c, ok := i.Comp[p]; ok {
		return i.Groups[c]
	}
	return []string{p}
}

// identityRule reports whether r is an empty-body rule whose head
// arguments are all the same variable, e.g. p(X, X) :- .
func identityRule(r ast.Rule) bool {
	if len(r.Body) != 0 || r.Head.Arity() == 0 {
		return false
	}
	first := r.Head.Args[0]
	if !first.IsVar() {
		return false
	}
	for _, a := range r.Head.Args[1:] {
		if !a.IsVar() || a.Var != first.Var {
			return false
		}
	}
	return true
}

func inGroup(group []string, p string) bool {
	for _, g := range group {
		if g == p {
			return true
		}
	}
	return false
}

// CheckSafety verifies the paper's safety assumptions: every head variable
// occurs in a body atom (range restriction; facts must be ground), and
// every variable of a built-in literal occurs in a base or derived atom of
// the same rule ("built-in predicates with unrestricted domains may be
// used only if all the free arguments also appear as arguments of base
// relations in the same rule").
func CheckSafety(p *ast.Program) error {
	for _, r := range p.Rules {
		if identityRule(r) {
			// The binary-chain identity rule p(X,...,X) :- is allowed:
			// it denotes the identity on the active domain (the paper's
			// definition of the reflexive closure uses it).
			continue
		}
		atomVars := make(map[string]bool)
		for _, l := range r.Body {
			if l.IsBuiltin() {
				continue
			}
			for _, a := range l.Args {
				if a.IsVar() {
					atomVars[a.Var] = true
				}
			}
		}
		for _, a := range r.Head.Args {
			if a.IsVar() && !atomVars[a.Var] {
				return fmt.Errorf("unsafe rule %q: head variable %s not bound in body",
					r.Head.Pred, a.Var)
			}
		}
		for _, l := range r.Body {
			if !l.IsBuiltin() {
				continue
			}
			for _, a := range l.Args {
				if a.IsVar() && !atomVars[a.Var] {
					return fmt.Errorf("unsafe rule %q: built-in variable %s not bound by an atom",
						r.Head.Pred, a.Var)
				}
			}
		}
	}
	return nil
}
