package analysis

import (
	"testing"

	"chainlog/internal/ast"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
)

func parse(t *testing.T, src string) *ast.Program {
	t.Helper()
	st := symtab.NewTable()
	res, err := parser.Parse(src, st)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return res.Program
}

// The paper's Lemma 1 worked example: three mutual-recursion groups
// {p1,p2,p3} (right-linear), {q1,q2} (linear nonregular), {r1,r2}
// (left-linear).
const paperExample = `
p1(X, Z) :- b(X, Y), p2(Y, Z).
p1(X, Z) :- q1(X, Y), p3(Y, Z).
p2(X, Z) :- c(X, Y), p1(Y, Z).
p2(X, Z) :- d(X, Y), p3(Y, Z).
p3(X, Y) :- a(X, Y).
p3(X, Z) :- e(X, Y), p2(Y, Z).
q1(X, Z) :- a(X, Y), q2(Y, Z).
q2(X, Y) :- r2(X, Y).
q2(X, Z) :- q1(X, Y), r1(Y, Z).
r1(X, Y) :- b(X, Y).
r1(X, Y) :- r2(X, Y).
r2(X, Z) :- r1(X, Y), c(Y, Z).
`

func TestPaperExampleGroups(t *testing.T) {
	prog := parse(t, paperExample)
	info := Analyze(prog)

	groups := map[string][]string{
		"p1": {"p1", "p2", "p3"},
		"q1": {"q1", "q2"},
		"r1": {"r1", "r2"},
	}
	for rep, members := range groups {
		for _, m := range members {
			if !info.Mutual(rep, m) && rep != m {
				t.Errorf("%s and %s should be mutually recursive", rep, m)
			}
		}
	}
	if info.Mutual("p1", "q1") || info.Mutual("q2", "r1") {
		t.Error("cross-group mutual recursion reported")
	}
	for _, p := range []string{"p1", "p2", "p3", "q1", "q2", "r1", "r2"} {
		if !info.Recursive(p) {
			t.Errorf("%s should be recursive", p)
		}
	}
}

func TestPaperExampleLinearity(t *testing.T) {
	prog := parse(t, paperExample)
	info := Analyze(prog)
	if !info.LinearProgram() {
		t.Fatal("paper example is linear")
	}
	if !info.BinaryChainProgram() {
		t.Fatal("paper example is a binary-chain program")
	}
	// p1..p3 right-linear, r1,r2 left-linear, q1,q2 neither.
	for _, p := range []string{"p1", "p2", "p3", "r1", "r2"} {
		if !info.RegularPred(p) {
			t.Errorf("%s should be regular", p)
		}
	}
	for _, p := range []string{"q1", "q2"} {
		if info.RegularPred(p) {
			t.Errorf("%s should not be regular", p)
		}
	}
	if info.RegularProgram() {
		t.Error("program with q1/q2 should not be regular")
	}
}

func TestNonLinearProgram(t *testing.T) {
	prog := parse(t, `
t(X, Z) :- t(X, Y), t(Y, Z).
t(X, Y) :- e(X, Y).
`)
	info := Analyze(prog)
	if info.LinearProgram() {
		t.Fatal("quadratic transitive closure reported linear")
	}
	if !info.RecursiveProgram() {
		t.Fatal("recursive program not detected")
	}
	if info.SingleDerivedBody() {
		t.Fatal("two derived body literals not detected")
	}
}

func TestBinaryChainRuleShapes(t *testing.T) {
	st := symtab.NewTable()
	ok := []string{
		"p(X, Y) :- a(X, Y).",
		"p(X, Z) :- a(X, Y), b(Y, Z).",
		"p(X, W) :- a(X, Y), b(Y, Z), c(Z, W).",
		"p(X, X).",
	}
	for _, src := range ok {
		r := parser.MustParse(src, st).Program.Rules[0]
		if !BinaryChainRule(r) {
			t.Errorf("%q should be a binary-chain rule", src)
		}
	}
	bad := []string{
		"p(X, Y) :- a(Y, X).",             // reversed chain
		"p(X, Z) :- a(X, Y), b(Y, Y).",    // repeated variable
		"p(X, Z) :- a(X, Y), b(X, Z).",    // branch, not chain
		"p(X, Y) :- a(X, Y), b(Y, X).",    // end var reused inside
		"p(X, Z) :- a(X, Y), b(Z, Y).",    // broken link
		"p(X, Y) :- a(X, Y2, Y).",         // ternary literal
		"p(X, Y, Z) :- a(X, Y), b(Y, Z).", // ternary head
	}
	for _, src := range bad {
		r := parser.MustParse(src, st).Program.Rules[0]
		if BinaryChainRule(r) {
			t.Errorf("%q should NOT be a binary-chain rule", src)
		}
	}
}

func TestRightLeftLinear(t *testing.T) {
	prog := parse(t, `
tcr(X, Z) :- e(X, Y), tcr(Y, Z).
tcr(X, Y) :- e(X, Y).
tcl(X, Z) :- tcl(X, Y), e(Y, Z).
tcl(X, Y) :- e(X, Y).
`)
	info := Analyze(prog)
	for _, r := range prog.RulesFor("tcr") {
		if !info.RightLinearRule(r) {
			t.Errorf("tcr rule not right-linear: %v", r)
		}
	}
	for _, r := range prog.RulesFor("tcl") {
		if !info.LeftLinearRule(r) {
			t.Errorf("tcl rule not left-linear: %v", r)
		}
	}
	if !info.RegularProgram() {
		t.Error("tcr+tcl program should be regular")
	}
}

func TestSameGenerationNotRegularButLinear(t *testing.T) {
	prog := parse(t, `
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
`)
	info := Analyze(prog)
	if !info.LinearProgram() || !info.BinaryChainProgram() {
		t.Fatal("sg should be a linear binary-chain program")
	}
	if info.RegularPred("sg") {
		t.Fatal("sg is neither right- nor left-linear")
	}
	if !info.RecursiveProgram() {
		t.Fatal("sg is recursive")
	}
}

func TestCheckSafety(t *testing.T) {
	good := parse(t, `
p(X, Y) :- q(X, Y), X < Y.
refl(X, X).
`)
	if err := CheckSafety(good); err != nil {
		t.Fatalf("safe program rejected: %v", err)
	}
	badHead := parse(t, `p(X, Y) :- q(X, X).`)
	if err := CheckSafety(badHead); err == nil {
		t.Fatal("unbound head variable accepted")
	}
	badBuiltin := parse(t, `p(X, Y) :- q(X, Y), X < Z.`)
	if err := CheckSafety(badBuiltin); err == nil {
		t.Fatal("unbound builtin variable accepted")
	}
}

func TestMutualSingletonNonRecursive(t *testing.T) {
	prog := parse(t, `
p(X, Y) :- q(X, Y).
q(X, Y) :- e(X, Y).
`)
	info := Analyze(prog)
	if info.Recursive("p") || info.Recursive("q") {
		t.Fatal("non-recursive predicates reported recursive")
	}
	if info.Mutual("p", "p") {
		t.Fatal("non-recursive p mutually recursive to itself")
	}
	if info.RecursiveProgram() {
		t.Fatal("program has no recursion")
	}
}
