package ast

import (
	"testing"

	"chainlog/internal/symtab"
)

func TestTermBasics(t *testing.T) {
	st := symtab.NewTable()
	v := V("X")
	c := C(st.Intern("a"))
	if !v.IsVar() || c.IsVar() {
		t.Fatal("IsVar misreports")
	}
	if v.Render(st) != "X" || c.Render(st) != "a" {
		t.Fatal("Render misreports")
	}
	if c.Render(nil) == "" {
		t.Fatal("Render(nil) empty")
	}
}

func TestLiteralHelpers(t *testing.T) {
	st := symtab.NewTable()
	l := Atom("p", V("X"), C(st.Intern("a")), V("X"), V("Y"))
	if l.Arity() != 4 || l.IsBuiltin() || l.IsGround() {
		t.Fatal("basic literal accessors broken")
	}
	vs := l.Vars(nil, map[string]bool{})
	if len(vs) != 2 || vs[0] != "X" || vs[1] != "Y" {
		t.Fatalf("Vars = %v", vs)
	}
	set := l.VarSet()
	if !set["X"] || !set["Y"] || set["a"] {
		t.Fatalf("VarSet = %v", set)
	}
	g := Atom("p", C(st.Intern("a")))
	if !g.IsGround() {
		t.Fatal("ground literal misreported")
	}
	b := Builtin(OpLT, V("X"), V("Z"))
	if !b.IsBuiltin() || b.Op.String() != "<" {
		t.Fatal("builtin accessors broken")
	}
	if !l.SharesVar(b) {
		t.Fatal("SharesVar misses X")
	}
	if g.SharesVar(b) {
		t.Fatal("SharesVar false positive")
	}
}

func TestRuleRender(t *testing.T) {
	st := symtab.NewTable()
	r := Rule{
		Head: Atom("sg", V("X"), V("Y")),
		Body: []Literal{
			Atom("up", V("X"), V("X1")),
			Atom("sg", V("X1"), V("Y1")),
			Atom("down", V("Y1"), V("Y")),
		},
	}
	want := "sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y)."
	if got := r.Render(st); got != want {
		t.Fatalf("Render = %q", got)
	}
	fact := Rule{Head: Atom("edge", C(st.Intern("a")), C(st.Intern("b")))}
	if got := fact.Render(st); got != "edge(a,b)." {
		t.Fatalf("fact Render = %q", got)
	}
}

func TestProgramDerivedBase(t *testing.T) {
	prog := &Program{Rules: []Rule{
		{Head: Atom("tc", V("X"), V("Y")), Body: []Literal{Atom("edge", V("X"), V("Y"))}},
		{Head: Atom("tc", V("X"), V("Z")), Body: []Literal{Atom("edge", V("X"), V("Y")), Atom("tc", V("Y"), V("Z"))}},
		{Head: Atom("refl", V("X"), V("X"))}, // empty-body identity rule
	}}
	derived := prog.Derived()
	if len(derived) != 2 || derived[0] != "refl" || derived[1] != "tc" {
		t.Fatalf("Derived = %v", derived)
	}
	base := prog.Base()
	if len(base) != 1 || base[0] != "edge" {
		t.Fatalf("Base = %v", base)
	}
	if rules := prog.RulesFor("tc"); len(rules) != 2 {
		t.Fatalf("RulesFor(tc) = %d", len(rules))
	}
}

func TestAritiesConflict(t *testing.T) {
	prog := &Program{Rules: []Rule{
		{Head: Atom("p", V("X")), Body: []Literal{Atom("q", V("X"), V("X"))}},
		{Head: Atom("p", V("X"), V("Y")), Body: []Literal{Atom("q", V("X"), V("Y"))}},
	}}
	if _, err := prog.Arities(); err == nil {
		t.Fatal("arity conflict not detected")
	}
	ok := &Program{Rules: []Rule{
		{Head: Atom("p", V("X")), Body: []Literal{Atom("q", V("X"), V("X"))}},
	}}
	ar, err := ok.Arities()
	if err != nil || ar["p"] != 1 || ar["q"] != 2 {
		t.Fatalf("Arities = %v, %v", ar, err)
	}
}

func TestQueryAdornment(t *testing.T) {
	st := symtab.NewTable()
	q := Query{Literal: Atom("cnx", C(st.Intern("hel")), C(st.Intern("900")), V("D"), V("AT"))}
	if q.Adornment() != "bbff" {
		t.Fatalf("Adornment = %s", q.Adornment())
	}
}
