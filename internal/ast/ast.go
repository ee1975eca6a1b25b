// Package ast defines the abstract syntax of Datalog programs: terms,
// literals, rules and programs, together with the structural helpers
// (variable sets, groundness, connectivity) the analyses in this module
// need.
//
// Constants are interned symbols (symtab.Sym); variables are identified by
// name within a rule. A program separates its intensional database (rules
// with non-empty bodies) from its extensional database (ground facts).
package ast

import (
	"fmt"
	"sort"
	"strings"

	"chainlog/internal/symtab"
)

// Term is a variable or a constant.
type Term struct {
	// Var is the variable name; empty when the term is a constant.
	Var string
	// Const is the interned constant; meaningful only when Var == "".
	Const symtab.Sym
}

// V constructs a variable term.
func V(name string) Term { return Term{Var: name} }

// C constructs a constant term.
func C(s symtab.Sym) Term { return Term{Const: s} }

// Hole constructs a parameter placeholder term, written '?' in query
// templates. A hole behaves like a bound constant for adornment and
// classification purposes; its value is supplied when the prepared query
// runs. The zero Term is a hole — real constants always intern to a
// non-None Sym, and variables have a name.
func Hole() Term { return Term{} }

// IsVar reports whether t is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// IsHole reports whether t is a parameter placeholder.
func (t Term) IsHole() bool { return t.Var == "" && t.Const == symtab.None }

// Render formats the term using the given symbol table (nil is allowed
// for variables). Constants whose names would not scan back as a single
// lower-case identifier or number are single-quoted, so rendered programs
// reparse to themselves.
func (t Term) Render(st *symtab.Table) string {
	if t.IsVar() {
		return t.Var
	}
	if t.IsHole() {
		return "?"
	}
	if st == nil {
		return fmt.Sprintf("#%d", int(t.Const))
	}
	name := st.Name(t.Const)
	if ConstNeedsQuoting(name) {
		return "'" + name + "'"
	}
	return name
}

// ConstNeedsQuoting reports whether a constant name must be quoted to
// survive a render → parse round trip: anything that is not a plain
// lower-case ASCII identifier or a well-formed integer. Exported so
// bulk writers (fact dumps) can stream names straight into a buffer
// instead of going through Render's returned string.
func ConstNeedsQuoting(name string) bool {
	if name == "" {
		return true
	}
	c := name[0]
	switch {
	case c >= '0' && c <= '9', c == '-':
		// Must be a pure integer; "007x" or "-" alone would mis-lex.
		digits := name
		if c == '-' {
			digits = name[1:]
			if digits == "" {
				return true
			}
		}
		for i := 0; i < len(digits); i++ {
			if digits[i] < '0' || digits[i] > '9' {
				return true
			}
		}
		return false
	case c >= 'a' && c <= 'z':
		for i := 1; i < len(name); i++ {
			c := name[i]
			ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-'
			if !ok {
				return true
			}
		}
		return false
	}
	return true // upper case, '_', non-ASCII lead, punctuation, ...
}

// BuiltinOp identifies the comparison built-ins allowed in rule bodies.
// The paper permits built-in predicates with unrestricted domains only when
// all their variables also appear in base literals of the same rule; the
// safety check in internal/analysis enforces that.
type BuiltinOp int

const (
	OpNone BuiltinOp = iota
	OpLT             // <
	OpLE             // <=
	OpGT             // >
	OpGE             // >=
	OpEQ             // =
	OpNE             // !=
)

func (op BuiltinOp) String() string {
	switch op {
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpEQ:
		return "="
	case OpNE:
		return "!="
	}
	return "?"
}

// Literal is an atom p(t1,...,tn) or a built-in comparison t1 op t2.
type Literal struct {
	Pred string // predicate name; empty for built-ins
	Op   BuiltinOp
	Args []Term
}

// Atom constructs an ordinary literal.
func Atom(pred string, args ...Term) Literal {
	return Literal{Pred: pred, Args: args}
}

// Builtin constructs a comparison literal.
func Builtin(op BuiltinOp, left, right Term) Literal {
	return Literal{Op: op, Args: []Term{left, right}}
}

// IsBuiltin reports whether l is a comparison literal.
func (l Literal) IsBuiltin() bool { return l.Op != OpNone }

// Arity returns the number of arguments.
func (l Literal) Arity() int { return len(l.Args) }

// Vars appends the variable names occurring in l to dst, in order of first
// occurrence, without duplicates relative to seen.
func (l Literal) Vars(dst []string, seen map[string]bool) []string {
	for _, a := range l.Args {
		if a.IsVar() && !seen[a.Var] {
			seen[a.Var] = true
			dst = append(dst, a.Var)
		}
	}
	return dst
}

// VarSet returns the set of variable names occurring in l.
func (l Literal) VarSet() map[string]bool {
	s := make(map[string]bool, len(l.Args))
	for _, a := range l.Args {
		if a.IsVar() {
			s[a.Var] = true
		}
	}
	return s
}

// IsGround reports whether all arguments are constants.
func (l Literal) IsGround() bool {
	for _, a := range l.Args {
		if a.IsVar() {
			return false
		}
	}
	return true
}

// SharesVar reports whether l and m have a common variable (the paper's
// "directly connected" relation on body literals).
func (l Literal) SharesVar(m Literal) bool {
	for _, a := range l.Args {
		if !a.IsVar() {
			continue
		}
		for _, b := range m.Args {
			if b.IsVar() && a.Var == b.Var {
				return true
			}
		}
	}
	return false
}

// Render formats the literal.
func (l Literal) Render(st *symtab.Table) string {
	if l.IsBuiltin() {
		return l.Args[0].Render(st) + " " + l.Op.String() + " " + l.Args[1].Render(st)
	}
	if len(l.Args) == 0 {
		return l.Pred
	}
	parts := make([]string, len(l.Args))
	for i, a := range l.Args {
		parts[i] = a.Render(st)
	}
	return l.Pred + "(" + strings.Join(parts, ",") + ")"
}

// Rule is head :- body. A fact is a rule with an empty body and a ground
// head, but facts are normally stored in the EDB rather than as rules.
type Rule struct {
	Head Literal
	Body []Literal
}

// Render formats the rule.
func (r Rule) Render(st *symtab.Table) string {
	if len(r.Body) == 0 {
		return r.Head.Render(st) + "."
	}
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.Render(st)
	}
	return r.Head.Render(st) + " :- " + strings.Join(parts, ", ") + "."
}

// Program is a set of rules (the intensional database) plus ground facts
// (the extensional database, held separately in internal/edb when
// evaluating). Derived and base predicates must be disjoint: no base
// predicate may appear in the head of a rule with a non-empty body.
type Program struct {
	Rules []Rule
}

// Derived returns the sorted set of derived predicate names (heads of
// rules). Ground facts live in the extensional store, never in Rules, so
// every rule head — including empty-body rules such as the identity rule
// p(X,X) :- and magic-set seed rules — names a derived predicate.
func (p *Program) Derived() []string {
	return sortedKeys(p.DerivedSet())
}

// DerivedSet returns the set of derived predicate names.
func (p *Program) DerivedSet() map[string]bool {
	set := make(map[string]bool)
	for _, r := range p.Rules {
		set[r.Head.Pred] = true
	}
	return set
}

// Base returns the sorted set of predicate names that appear in bodies (or
// in facts) but are never derived.
func (p *Program) Base() []string {
	derived := p.DerivedSet()
	set := make(map[string]bool)
	for _, r := range p.Rules {
		for _, l := range r.Body {
			if !l.IsBuiltin() && !derived[l.Pred] {
				set[l.Pred] = true
			}
		}
	}
	return sortedKeys(set)
}

// RulesFor returns the rules whose head predicate is pred, in program
// order.
func (p *Program) RulesFor(pred string) []Rule {
	var out []Rule
	for _, r := range p.Rules {
		if r.Head.Pred == pred {
			out = append(out, r)
		}
	}
	return out
}

// Arities returns the arity of each predicate mentioned in the program.
// It returns an error if a predicate is used with two different arities.
func (p *Program) Arities() (map[string]int, error) {
	ar := make(map[string]int)
	check := func(l Literal) error {
		if l.IsBuiltin() {
			return nil
		}
		if prev, ok := ar[l.Pred]; ok && prev != l.Arity() {
			return fmt.Errorf("predicate %s used with arities %d and %d", l.Pred, prev, l.Arity())
		}
		ar[l.Pred] = l.Arity()
		return nil
	}
	for _, r := range p.Rules {
		if err := check(r.Head); err != nil {
			return nil, err
		}
		for _, l := range r.Body {
			if err := check(l); err != nil {
				return nil, err
			}
		}
	}
	return ar, nil
}

// Render formats the whole program.
func (p *Program) Render(st *symtab.Table) string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.Render(st))
		b.WriteByte('\n')
	}
	return b.String()
}

// Query is a literal with some arguments possibly instantiated. The answer
// to q(x̄) is the set of instantiations of the variables in x̄ making the
// literal true.
type Query struct {
	Literal
}

// Adornment returns the paper's bound/free adornment string for the query:
// 'b' at positions filled by constants, 'f' at variable positions.
func (q Query) Adornment() string {
	b := make([]byte, len(q.Args))
	for i, a := range q.Args {
		if a.IsVar() {
			b[i] = 'f'
		} else {
			b[i] = 'b'
		}
	}
	return string(b)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
