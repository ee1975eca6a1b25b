// Package expr defines expressions over binary relations with the
// "natural" operators of the paper — ∪ (union), · (composition) and
// * (reflexive transitive closure) — plus the identity relation id, the
// empty relation, and inverse (needed to evaluate p(X,b) queries by
// reversing the program, and present in the Hunt-et-al. operator set).
//
// Lemma 1 transforms a linear binary-chain program into one equation
// p = e_p per derived predicate, where e_p is such an expression whose
// arguments are predicate symbols. The automaton package compiles these
// expressions into NFAs by the standard regular-expression construction.
package expr

import (
	"fmt"
	"sort"
	"strings"
)

// Expr is a relational expression node. Expressions are immutable; all
// rewriting helpers return new values.
type Expr interface {
	isExpr()
	// String renders the expression with ∪ for union, . for composition
	// and postfix * for closure.
	String() string
}

// Pred is an occurrence of a predicate symbol (base or derived — the
// distinction lives in the surrounding program, not the expression).
type Pred struct{ Name string }

// Empty is the empty relation ∅ (the paper's degenerate case in Lemma 1
// step 3: p = p·e is interpreted as p = ∅).
type Empty struct{}

// Ident is the identity relation id, the interpretation of transitions on
// the empty string in M(e).
type Ident struct{}

// Union is e1 ∪ ... ∪ en, n >= 2 after normalization.
type Union struct{ Terms []Expr }

// Concat is e1 · ... · en, n >= 2 after normalization.
type Concat struct{ Terms []Expr }

// Star is e*, the reflexive transitive closure.
type Star struct{ E Expr }

// Inverse is e⁻¹.
type Inverse struct{ E Expr }

func (Pred) isExpr()    {}
func (Empty) isExpr()   {}
func (Ident) isExpr()   {}
func (Union) isExpr()   {}
func (Concat) isExpr()  {}
func (Star) isExpr()    {}
func (Inverse) isExpr() {}

func (p Pred) String() string    { return p.Name }
func (Empty) String() string     { return "0" }
func (Ident) String() string     { return "id" }
func (s Star) String() string    { return wrap(s.E) + "*" }
func (v Inverse) String() string { return wrap(v.E) + "~" }

func (u Union) String() string {
	parts := make([]string, len(u.Terms))
	for i, t := range u.Terms {
		parts[i] = t.String()
	}
	return strings.Join(parts, " U ")
}

func (c Concat) String() string {
	parts := make([]string, len(c.Terms))
	for i, t := range c.Terms {
		if _, ok := t.(Union); ok {
			parts[i] = "(" + t.String() + ")"
		} else {
			parts[i] = t.String()
		}
	}
	return strings.Join(parts, ".")
}

// wrap parenthesizes non-atomic operands of postfix operators.
func wrap(e Expr) string {
	switch e.(type) {
	case Pred, Empty, Ident, Star, Inverse:
		return e.String()
	}
	return "(" + e.String() + ")"
}

// NewUnion builds a normalized union: nested unions are flattened, Empty
// terms dropped, and duplicate terms (structurally equal) removed while
// preserving first-occurrence order. An empty result is Empty; a singleton
// collapses to its term.
func NewUnion(terms ...Expr) Expr {
	var flat []Expr
	var add func(e Expr)
	add = func(e Expr) {
		switch v := e.(type) {
		case Union:
			for _, t := range v.Terms {
				add(t)
			}
		case Empty:
		default:
			for _, prev := range flat {
				if Equal(prev, e) {
					return
				}
			}
			flat = append(flat, e)
		}
	}
	for _, t := range terms {
		add(t)
	}
	switch len(flat) {
	case 0:
		return Empty{}
	case 1:
		return flat[0]
	}
	return Union{Terms: flat}
}

// NewConcat builds a normalized composition: nested concats are flattened,
// Ident terms dropped, and any Empty term annihilates the whole product.
// An empty result is Ident; a singleton collapses to its term.
func NewConcat(terms ...Expr) Expr {
	var flat []Expr
	empty := false
	var add func(e Expr)
	add = func(e Expr) {
		switch v := e.(type) {
		case Concat:
			for _, t := range v.Terms {
				add(t)
			}
		case Ident:
		case Empty:
			empty = true
		default:
			flat = append(flat, e)
		}
	}
	for _, t := range terms {
		add(t)
	}
	if empty {
		return Empty{}
	}
	switch len(flat) {
	case 0:
		return Ident{}
	case 1:
		return flat[0]
	}
	return Concat{Terms: flat}
}

// NewStar builds a normalized closure: 0* = id* = id, (e*)* = e*.
func NewStar(e Expr) Expr {
	switch v := e.(type) {
	case Empty, Ident:
		return Ident{}
	case Star:
		return v
	}
	return Star{E: e}
}

// NewInverse builds a normalized inverse: (e⁻¹)⁻¹ = e, id⁻¹ = id, 0⁻¹ = 0.
func NewInverse(e Expr) Expr {
	switch v := e.(type) {
	case Inverse:
		return v.E
	case Ident:
		return Ident{}
	case Empty:
		return Empty{}
	}
	return Inverse{E: e}
}

// Equal reports structural equality of normalized expressions.
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case Pred:
		y, ok := b.(Pred)
		return ok && x.Name == y.Name
	case Empty:
		_, ok := b.(Empty)
		return ok
	case Ident:
		_, ok := b.(Ident)
		return ok
	case Star:
		y, ok := b.(Star)
		return ok && Equal(x.E, y.E)
	case Inverse:
		y, ok := b.(Inverse)
		return ok && Equal(x.E, y.E)
	case Union:
		y, ok := b.(Union)
		if !ok || len(x.Terms) != len(y.Terms) {
			return false
		}
		for i := range x.Terms {
			if !Equal(x.Terms[i], y.Terms[i]) {
				return false
			}
		}
		return true
	case Concat:
		y, ok := b.(Concat)
		if !ok || len(x.Terms) != len(y.Terms) {
			return false
		}
		for i := range x.Terms {
			if !Equal(x.Terms[i], y.Terms[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// UnionTerms views e as a union and returns its top-level terms (a single
// slice for non-unions; nil for Empty).
func UnionTerms(e Expr) []Expr {
	switch v := e.(type) {
	case Union:
		return v.Terms
	case Empty:
		return nil
	}
	return []Expr{e}
}

// ConcatTerms views e as a composition and returns its top-level factors
// (a single slice for non-concats; nil for Ident).
func ConcatTerms(e Expr) []Expr {
	switch v := e.(type) {
	case Concat:
		return v.Terms
	case Ident:
		return nil
	}
	return []Expr{e}
}

// ContainsPred reports whether the predicate name occurs anywhere in e.
func ContainsPred(e Expr, name string) bool {
	found := false
	Walk(e, func(x Expr) {
		if p, ok := x.(Pred); ok && p.Name == name {
			found = true
		}
	})
	return found
}

// CountPred returns the number of occurrences of name in e.
func CountPred(e Expr, name string) int {
	n := 0
	Walk(e, func(x Expr) {
		if p, ok := x.(Pred); ok && p.Name == name {
			n++
		}
	})
	return n
}

// Preds returns the sorted distinct predicate names occurring in e.
func Preds(e Expr) []string {
	set := make(map[string]bool)
	Walk(e, func(x Expr) {
		if p, ok := x.(Pred); ok {
			set[p.Name] = true
		}
	})
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Walk visits every node of e in preorder.
func Walk(e Expr, f func(Expr)) {
	f(e)
	switch v := e.(type) {
	case Union:
		for _, t := range v.Terms {
			Walk(t, f)
		}
	case Concat:
		for _, t := range v.Terms {
			Walk(t, f)
		}
	case Star:
		Walk(v.E, f)
	case Inverse:
		Walk(v.E, f)
	}
}

// Substitute replaces every occurrence of predicate name with repl,
// renormalizing on the way up.
func Substitute(e Expr, name string, repl Expr) Expr {
	switch v := e.(type) {
	case Pred:
		if v.Name == name {
			return repl
		}
		return v
	case Union:
		terms := make([]Expr, len(v.Terms))
		for i, t := range v.Terms {
			terms[i] = Substitute(t, name, repl)
		}
		return NewUnion(terms...)
	case Concat:
		terms := make([]Expr, len(v.Terms))
		for i, t := range v.Terms {
			terms[i] = Substitute(t, name, repl)
		}
		return NewConcat(terms...)
	case Star:
		return NewStar(Substitute(v.E, name, repl))
	case Inverse:
		return NewInverse(Substitute(v.E, name, repl))
	}
	return e
}

// SubstituteAll applies a set of substitutions simultaneously.
func SubstituteAll(e Expr, repl map[string]Expr) Expr {
	switch v := e.(type) {
	case Pred:
		if r, ok := repl[v.Name]; ok {
			return r
		}
		return v
	case Union:
		terms := make([]Expr, len(v.Terms))
		for i, t := range v.Terms {
			terms[i] = SubstituteAll(t, repl)
		}
		return NewUnion(terms...)
	case Concat:
		terms := make([]Expr, len(v.Terms))
		for i, t := range v.Terms {
			terms[i] = SubstituteAll(t, repl)
		}
		return NewConcat(terms...)
	case Star:
		return NewStar(SubstituteAll(v.E, repl))
	case Inverse:
		return NewInverse(SubstituteAll(v.E, repl))
	}
	return e
}

// Reverse returns the expression denoting the inverse relation of e, with
// inverses pushed down to the predicate leaves: (e·f)ⁱⁿᵛ = fⁱⁿᵛ·eⁱⁿᵛ,
// (e∪f)ⁱⁿᵛ = eⁱⁿᵛ∪fⁱⁿᵛ, (e*)ⁱⁿᵛ = (eⁱⁿᵛ)*. Predicates in keep stay as they
// are: in a reversed equation system (equations.System.Reverse) a derived
// predicate names its own reversed equation. This is how p(X,b) queries
// are evaluated: apply the algorithm to the reversed equations with the
// bound argument first.
func Reverse(e Expr, keep map[string]bool) Expr {
	switch v := e.(type) {
	case Pred:
		if keep[v.Name] {
			return v
		}
		return Inverse{E: v}
	case Empty, Ident:
		return e
	case Union:
		terms := make([]Expr, len(v.Terms))
		for i, t := range v.Terms {
			terms[i] = Reverse(t, keep)
		}
		return NewUnion(terms...)
	case Concat:
		terms := make([]Expr, len(v.Terms))
		for i, t := range v.Terms {
			terms[len(v.Terms)-1-i] = Reverse(t, keep)
		}
		return NewConcat(terms...)
	case Star:
		return NewStar(Reverse(v.E, keep))
	case Inverse:
		return v.E
	}
	return e
}

// Size returns the number of predicate occurrences in e — the paper's
// notion of expression size counts tuples per occurrence, so this is the
// structural factor (the A3 Horner ablation compares it for sg_i vs
// sg'_i).
func Size(e Expr) int {
	n := 0
	Walk(e, func(x Expr) {
		if _, ok := x.(Pred); ok {
			n++
		}
	})
	return n
}

// Depth returns the nesting depth of e.
func Depth(e Expr) int {
	switch v := e.(type) {
	case Union, Concat:
		d := 0
		var terms []Expr
		if u, ok := v.(Union); ok {
			terms = u.Terms
		} else {
			terms = v.(Concat).Terms
		}
		for _, t := range terms {
			if dt := Depth(t); dt > d {
				d = dt
			}
		}
		return d + 1
	case Star:
		return Depth(v.E) + 1
	case Inverse:
		return Depth(v.E) + 1
	}
	return 1
}

// Distribute rewrites e·(f ∪ g) into e·f ∪ e·g and (f ∪ g)·e into
// f·e ∪ g·e, recursively, producing a union-of-concats normal form over
// atoms (Pred, Star, Inverse). Star bodies are left as-is. This is
// Lemma 1 step 8 in its unconditional form.
func Distribute(e Expr) Expr {
	switch v := e.(type) {
	case Union:
		terms := make([]Expr, len(v.Terms))
		for i, t := range v.Terms {
			terms[i] = Distribute(t)
		}
		return NewUnion(terms...)
	case Concat:
		// Distribute each factor first, then take the cross product of
		// union alternatives left to right.
		alts := [][]Expr{nil} // list of factor sequences
		for _, factor := range v.Terms {
			d := Distribute(factor)
			choices := UnionTerms(d)
			if len(choices) == 0 { // factor is Empty
				return Empty{}
			}
			next := make([][]Expr, 0, len(alts)*len(choices))
			for _, seq := range alts {
				for _, c := range choices {
					ns := make([]Expr, len(seq), len(seq)+1)
					copy(ns, seq)
					ns = append(ns, c)
					next = append(next, ns)
				}
			}
			alts = next
		}
		terms := make([]Expr, len(alts))
		for i, seq := range alts {
			terms[i] = NewConcat(seq...)
		}
		return NewUnion(terms...)
	case Star:
		return NewStar(Distribute(v.E))
	case Inverse:
		return NewInverse(Distribute(v.E))
	}
	return e
}

// MustParse parses an expression (see Parse) and panics on error.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

// Parse parses the textual expression syntax used in tests and the CLI:
//
//	union:   e U f   (also "|" and "+")
//	concat:  e . f
//	star:    e*
//	inverse: e~
//	atoms:   predicate names, "id", "0", parenthesized expressions
func Parse(src string) (Expr, error) {
	p := &eparser{src: src}
	e, err := p.union()
	if err != nil {
		return nil, err
	}
	p.ws()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("expr: trailing input at offset %d: %q", p.pos, p.src[p.pos:])
	}
	return e, nil
}

type eparser struct {
	src string
	pos int
}

func (p *eparser) ws() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

func (p *eparser) union() (Expr, error) {
	first, err := p.concat()
	if err != nil {
		return nil, err
	}
	terms := []Expr{first}
	for {
		p.ws()
		if p.pos >= len(p.src) {
			break
		}
		c := p.src[p.pos]
		isU := c == '|' || c == '+' ||
			(c == 'U' && (p.pos+1 == len(p.src) || !isWord(p.src[p.pos+1])))
		if !isU {
			break
		}
		p.pos++
		t, err := p.concat()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	return NewUnion(terms...), nil
}

func (p *eparser) concat() (Expr, error) {
	first, err := p.postfix()
	if err != nil {
		return nil, err
	}
	terms := []Expr{first}
	for {
		p.ws()
		if p.pos >= len(p.src) || p.src[p.pos] != '.' {
			break
		}
		p.pos++
		t, err := p.postfix()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	return NewConcat(terms...), nil
}

func (p *eparser) postfix() (Expr, error) {
	e, err := p.atom()
	if err != nil {
		return nil, err
	}
	for {
		p.ws()
		if p.pos < len(p.src) && p.src[p.pos] == '*' {
			p.pos++
			e = NewStar(e)
			continue
		}
		if p.pos < len(p.src) && p.src[p.pos] == '~' {
			p.pos++
			e = NewInverse(e)
			continue
		}
		break
	}
	return e, nil
}

func (p *eparser) atom() (Expr, error) {
	p.ws()
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("expr: unexpected end of input")
	}
	c := p.src[p.pos]
	if c == '(' {
		p.pos++
		e, err := p.union()
		if err != nil {
			return nil, err
		}
		p.ws()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return nil, fmt.Errorf("expr: missing ')' at offset %d", p.pos)
		}
		p.pos++
		return e, nil
	}
	if c == '0' {
		p.pos++
		return Empty{}, nil
	}
	if !isWord(c) {
		return nil, fmt.Errorf("expr: unexpected %q at offset %d", string(c), p.pos)
	}
	start := p.pos
	for p.pos < len(p.src) && isWord(p.src[p.pos]) {
		p.pos++
	}
	name := p.src[start:p.pos]
	if name == "id" {
		return Ident{}, nil
	}
	return Pred{Name: name}, nil
}

func isWord(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-' || c == '\''
}
