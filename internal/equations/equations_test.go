package equations

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"chainlog/internal/analysis"
	"chainlog/internal/ast"
	"chainlog/internal/expr"
	"chainlog/internal/paper/rel"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
)

func transform(t *testing.T, src string) *System {
	t.Helper()
	st := symtab.NewTable()
	res, err := parser.Parse(src, st)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sys, err := Transform(res.Program)
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	return sys
}

func TestTransitiveClosureRightLinear(t *testing.T) {
	sys := transform(t, `
tc(X, Y) :- e(X, Y).
tc(X, Z) :- e(X, Y), tc(Y, Z).
`)
	// p = e ∪ e·p  ⇒  p = e*·e  (right recursion elimination; the paper's
	// left/right naming follows the grammar, Arden gives e*.e here).
	got := sys.Eq["tc"].String()
	if got != "e*.e" && got != "e.e*" {
		t.Fatalf("tc = %q", got)
	}
	if !sys.IsRegularFor("tc") {
		t.Fatal("tc should be regular")
	}
}

func TestLeftLinear(t *testing.T) {
	sys := transform(t, `
tc(X, Y) :- e(X, Y).
tc(X, Z) :- tc(X, Y), e(Y, Z).
`)
	got := sys.Eq["tc"].String()
	if got != "e.e*" && got != "e*.e" {
		t.Fatalf("tc = %q", got)
	}
}

func TestReflexiveTransitiveClosure(t *testing.T) {
	sys := transform(t, `
star(X, X).
star(X, Z) :- star(X, Y), e(Y, Z).
`)
	got := sys.Eq["star"].String()
	if got != "e*" && got != "id.e*" && got != "e*.id" {
		t.Fatalf("star = %q", got)
	}
}

func TestSameGenerationStaysRecursive(t *testing.T) {
	sys := transform(t, `
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
`)
	if got := sys.Eq["sg"].String(); got != "flat U up.sg.down" {
		t.Fatalf("sg = %q", got)
	}
	if sys.IsRegularFor("sg") {
		t.Fatal("sg must keep its two-sided recursion")
	}
	shape, ok := sys.LinearDecompose("sg")
	if !ok {
		t.Fatal("sg should decompose as e0 U e1.sg.e2")
	}
	if shape.E0.String() != "flat" || shape.E1.String() != "up" || shape.E2.String() != "down" {
		t.Fatalf("shape = %q %q %q", shape.E0, shape.E1, shape.E2)
	}
}

// The paper's worked example (Section 3). The final system must satisfy
// Lemma 1's statements: regular predicates (p1,p2,p3,r1,r2) eliminated
// from all right-hand sides, and the nonregular group {q1,q2} reduced to
// direct recursion in exactly one equation.
func TestPaperWorkedExample(t *testing.T) {
	sys := transform(t, `
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
`)
	t.Logf("final system:\n%s", sys.Render())

	regular := map[string]bool{"p1": true, "p2": true, "p3": true, "r1": true, "r2": true}
	for _, p := range sys.Order {
		e := sys.Eq[p]
		// Statement (3): no regular derived predicate occurs in any RHS.
		for q := range regular {
			if expr.ContainsPred(e, q) {
				t.Errorf("equation for %s still mentions regular predicate %s: %s", p, q, e)
			}
		}
	}
	// Lemma 1 statement (6): since each nonregular predicate has a single
	// recursive rule, every equation carries at most one occurrence of a
	// predicate mutually recursive to its left-hand side — the group
	// {q1, q2} reduces to direct recursion in one equation.
	if n := expr.CountPred(sys.Eq["q2"], "q2"); n != 1 {
		t.Errorf("q2 should have exactly one direct self-occurrence, got %d: %s", n, sys.Eq["q2"])
	}
	if expr.ContainsPred(sys.Eq["q2"], "q1") {
		t.Errorf("q2's equation should not mention q1: %s", sys.Eq["q2"])
	}

	// Semantic checks against the paper's stated final equations (the
	// algorithm's elimination choices are free, so syntactic forms may
	// differ; Lemma 1 statement (7) fixes the denotation). r1 ≡ b·c*,
	// r2 ≡ b·c*·c, and the whole system's solution must equal the
	// paper's system's solution on random data.
	st := symtab.NewTable()
	universe := make([]symtab.Sym, 5)
	for i := range universe {
		universe[i] = st.Intern(fmt.Sprintf("c%d", i))
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		env := rel.Env{}
		for _, b := range []string{"a", "b", "c", "d", "e"} {
			r := rel.New()
			for _, u := range universe {
				for _, v := range universe {
					if rng.Float64() < 0.2 {
						r.Add(u, v)
					}
				}
			}
			env[b] = r
		}
		if !rel.Equal(rel.Eval(sys.Eq["r1"], env, universe), rel.Eval(expr.MustParse("b.c*"), env, universe)) {
			t.Fatalf("r1 %q is not equivalent to b.c*", sys.Eq["r1"])
		}
		if !rel.Equal(rel.Eval(sys.Eq["r2"], env, universe), rel.Eval(expr.MustParse("b.c*.c"), env, universe)) {
			t.Fatalf("r2 %q is not equivalent to b.c*.c", sys.Eq["r2"])
		}
		// The paper's q2 equation, solved alongside ours.
		paper := &System{
			Order:   []string{"q2"},
			Eq:      map[string]expr.Expr{"q2": expr.MustParse("b.c*.c U a.q2.b.c*")},
			Derived: map[string]bool{"q2": true},
		}
		mineQ2 := &System{
			Order:   []string{"q2"},
			Eq:      map[string]expr.Expr{"q2": sys.Eq["q2"]},
			Derived: map[string]bool{"q2": true},
		}
		wantSol, ok1 := solveSystem(paper, env, universe, 100)
		gotSol, ok2 := solveSystem(mineQ2, env, universe, 100)
		if !ok1 || !ok2 || !rel.Equal(wantSol["q2"], gotSol["q2"]) {
			t.Fatalf("q2 %q is not equivalent to the paper's b.c*.c U a.q2.b.c*", sys.Eq["q2"])
		}
	}
}

func TestRejectNonBinaryChain(t *testing.T) {
	st := symtab.NewTable()
	res := parser.MustParse(`p(X, Z) :- a(X, Y), b(X, Z).`, st)
	if _, err := Transform(res.Program); err == nil {
		t.Fatal("non-chain rule accepted")
	}
	res = parser.MustParse(`
t(X, Y) :- e(X, Y).
t(X, W) :- a(X, Y), t(Y, Z), b(Z, W).
t(X, Z) :- t(X, Y), t(Y, Z).
`, st)
	if _, err := Transform(res.Program); err == nil {
		t.Fatal("nonlinear program accepted")
	}
}

// closureCases are nonlinear programs step 4's closure identities solve:
// each renders as want, and its least solution is that of the program's
// own nonlinear equation orig.
var closureCases = []struct {
	name, src, pred, want, orig string
}{
	{"tcn", `
tcn(X, Y) :- e(X, Y).
tcn(X, Z) :- tcn(X, Y), tcn(Y, Z).
`, "tcn", "e.e*", "e U tcn.tcn"},
	{"p.b.p", `
p(X, Y) :- e(X, Y).
p(X, W) :- p(X, Y), b(Y, Z), p(Z, W).
`, "p", "e.(b.e)*", "e U p.b.p"},
	{"left-linear+p.b.p", `
p(X, Y) :- e(X, Y).
p(X, Z) :- p(X, Y), c(Y, Z).
p(X, W) :- p(X, Y), b(Y, Z), p(Z, W).
`, "p", "e.(c U b.e)*", "e U p.c U p.b.p"},
	{"right-linear+p.p", `
p(X, Y) :- e(X, Y).
p(X, Z) :- d(X, Y), p(Y, Z).
p(X, Z) :- p(X, Y), p(Y, Z).
`, "p", "(d U e)*.e", "e U d.p U p.p"},
}

func TestClosureIdentities(t *testing.T) {
	st := symtab.NewTable()
	universe := make([]symtab.Sym, 5)
	for i := range universe {
		universe[i] = st.Intern(fmt.Sprintf("c%d", i))
	}
	rng := rand.New(rand.NewSource(11))
	for _, c := range closureCases {
		sys := transform(t, c.src)
		if got := sys.Eq[c.pred].String(); got != c.want {
			t.Errorf("%s: %s = %q, want %q", c.name, c.pred, got, c.want)
			continue
		}
		if !sys.IsRegularFor(c.pred) {
			t.Errorf("%s: %s should be regular", c.name, c.pred)
		}
		orig := &System{
			Order:   []string{c.pred},
			Eq:      map[string]expr.Expr{c.pred: expr.MustParse(c.orig)},
			Derived: map[string]bool{c.pred: true},
		}
		for trial := 0; trial < 30; trial++ {
			env := rel.Env{}
			for _, b := range []string{"b", "c", "d", "e"} {
				r := rel.New()
				for _, u := range universe {
					for _, v := range universe {
						if rng.Float64() < 0.2 {
							r.Add(u, v)
						}
					}
				}
				env[b] = r
			}
			want, ok1 := solveSystem(orig, env, universe, 100)
			got, ok2 := solveSystem(sys, env, universe, 100)
			if !ok1 || !ok2 || !rel.Equal(want[c.pred], got[c.pred]) {
				t.Fatalf("%s: %s = %s is not the least solution of %s = %s", c.name, c.pred, c.want, c.pred, c.orig)
			}
		}
	}
}

// Nonlinear programs the identities cannot solve keep today's error.
func TestRejectUnsolvedNonlinear(t *testing.T) {
	for name, src := range map[string]string{
		"two-sided+p.p": `
p(X, Y) :- e(X, Y).
p(X, W) :- a(X, Y), p(Y, Z), b(Z, W).
p(X, Z) :- p(X, Y), p(Y, Z).
`,
		"p.p.p": `
p(X, Y) :- e(X, Y).
p(X, W) :- p(X, Y), p(Y, Z), p(Z, W).
`,
		"mutual q.q": `
p(X, Y) :- e(X, Y).
p(X, Y) :- q(X, Y).
q(X, Z) :- p(X, Y), p(Y, Z).
`,
		// A closure whose middle is mutual to p would put a recursive
		// transition of p's own component under a star.
		"p.q.p, q mutual": `
p(X, Y) :- e(X, Y).
p(X, W) :- p(X, Y), q(Y, Z), p(Z, W).
q(X, Y) :- f(X, Y).
q(X, Z) :- a(X, Y), p(Y, Z).
`,
	} {
		res := parser.MustParse(src, symtab.NewTable())
		_, err := Transform(res.Program)
		if err == nil || err.Error() != "equations: program is not linear" {
			t.Errorf("%s: err = %v, want equations: program is not linear", name, err)
		}
	}
}

// A nonlinear cycle p1 :- p2,p2. … p6 :- p1,p1 doubles its occurrences
// with every substitution; it is refused before the step 3–8 loop, so the
// refusal is immediate.
func TestRejectNonlinearCycleUpFront(t *testing.T) {
	var src strings.Builder
	for i := 1; i <= 6; i++ {
		next := i%6 + 1
		fmt.Fprintf(&src, "p%d(X, Y) :- e%d(X, Y).\n", i, i)
		fmt.Fprintf(&src, "p%d(X, Z) :- p%d(X, Y), p%d(Y, Z).\n", i, next, next)
	}
	res := parser.MustParse(src.String(), symtab.NewTable())
	start := time.Now()
	_, err := Transform(res.Program)
	if err == nil || err.Error() != "equations: program is not linear" {
		t.Fatalf("err = %v, want equations: program is not linear", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("refusal took %v", d)
	}
}

func TestLinearDecomposeEdgeShapes(t *testing.T) {
	// Right-linear residual recursion: e1 = Ident.
	sys := &System{
		Order:   []string{"p"},
		Eq:      map[string]expr.Expr{"p": expr.MustParse("a U p.b")},
		Derived: map[string]bool{"p": true},
	}
	shape, ok := sys.LinearDecompose("p")
	if !ok {
		t.Fatal("decompose failed")
	}
	if _, isID := shape.E1.(expr.Ident); !isID {
		t.Fatalf("E1 = %v", shape.E1)
	}
	// Two recursive terms: not decomposable.
	sys.Eq["p"] = expr.MustParse("a U b.p U p.c")
	if _, ok := sys.LinearDecompose("p"); ok {
		t.Fatal("two-term recursion decomposed")
	}
	// p under a star: not decomposable.
	sys.Eq["p"] = expr.MustParse("a U (b.p)*.c")
	if _, ok := sys.LinearDecompose("p"); ok {
		t.Fatal("starred recursion decomposed")
	}
}

// --- Lemma 1 statement (7): equivalence with the fixpoint semantics ---

// solveSystem computes the least solution of a (possibly recursive)
// equation system by Kleene iteration over materialized relations.
func solveSystem(sys *System, env rel.Env, universe []symtab.Sym, maxIter int) (map[string]*rel.Rel, bool) {
	cur := make(map[string]*rel.Rel)
	for _, p := range sys.Order {
		cur[p] = rel.New()
	}
	for i := 0; i < maxIter; i++ {
		changed := false
		for _, p := range sys.Order {
			full := rel.Env{}
			for k, v := range env {
				full[k] = v
			}
			for q, v := range cur {
				full[q] = v
			}
			next := rel.Eval(sys.Eq[p], full, universe)
			if !rel.Equal(next, cur[p]) {
				changed = true
				cur[p] = next
			}
		}
		if !changed {
			return cur, true
		}
	}
	return cur, false
}

// naiveFixpoint computes the program's semantics directly over relations.
func naiveFixpoint(prog *ast.Program, env rel.Env, universe []symtab.Sym, maxIter int) (map[string]*rel.Rel, bool) {
	cur := make(map[string]*rel.Rel)
	derived := prog.DerivedSet()
	for p := range derived {
		cur[p] = rel.New()
	}
	lookup := func(name string) *rel.Rel {
		if derived[name] {
			return cur[name]
		}
		if r, ok := env[name]; ok {
			return r
		}
		return rel.New()
	}
	for i := 0; i < maxIter; i++ {
		changed := false
		for _, r := range prog.Rules {
			var acc *rel.Rel
			if len(r.Body) == 0 {
				// identity rule p(X,X)
				acc = rel.New()
				for _, u := range universe {
					acc.Add(u, u)
				}
			} else {
				acc = lookup(r.Body[0].Pred)
				for _, l := range r.Body[1:] {
					acc = rel.Compose(acc, lookup(l.Pred))
				}
			}
			merged := rel.Union(cur[r.Head.Pred], acc)
			if !rel.Equal(merged, cur[r.Head.Pred]) {
				changed = true
				cur[r.Head.Pred] = merged
			}
		}
		if !changed {
			return cur, true
		}
	}
	return cur, false
}

// randomLinearChainProgram builds a random linear binary-chain program
// over base predicates b0,b1,b2 and derived predicates p0..p(k-1), with at
// most one derived occurrence per body.
func randomLinearChainProgram(rng *rand.Rand) *ast.Program {
	return randomChainProgram(rng, false)
}

// randomChainProgram builds a random binary-chain program; with nonlinear
// set a body may hold a second derived occurrence.
func randomChainProgram(rng *rand.Rand, nonlinear bool) *ast.Program {
	k := rng.Intn(3) + 1
	prog := &ast.Program{}
	derived := make([]string, k)
	for i := range derived {
		derived[i] = fmt.Sprintf("p%d", i)
	}
	base := []string{"b0", "b1", "b2"}
	vars := []string{"X", "Y", "Z", "W"}
	for i, p := range derived {
		nrules := rng.Intn(2) + 1
		if i == 0 {
			nrules++ // ensure the query predicate has rules
		}
		for rn := 0; rn < nrules; rn++ {
			blen := rng.Intn(3) + 1
			derivedAt, secondAt := -1, -1
			if rng.Intn(2) == 0 {
				derivedAt = rng.Intn(blen)
			}
			if nonlinear && rng.Intn(2) == 0 {
				secondAt = rng.Intn(blen)
			}
			var body []ast.Literal
			for j := 0; j < blen; j++ {
				var pred string
				if j == derivedAt || j == secondAt {
					pred = derived[rng.Intn(k)]
				} else {
					pred = base[rng.Intn(len(base))]
				}
				body = append(body, ast.Atom(pred, ast.V(vars[j]), ast.V(vars[j+1])))
			}
			prog.Rules = append(prog.Rules, ast.Rule{
				Head: ast.Atom(p, ast.V(vars[0]), ast.V(vars[blen])),
				Body: body,
			})
		}
	}
	return prog
}

// TestLemma1Equivalence is the Lemma 1 statement (7) property: for random
// linear binary-chain programs and random extensional databases, the least
// solution of the transformed equation system assigns every derived
// predicate the same relation the program's fixpoint semantics does.
func TestLemma1Equivalence(t *testing.T) {
	st := symtab.NewTable()
	universe := make([]symtab.Sym, 5)
	for i := range universe {
		universe[i] = st.Intern(fmt.Sprintf("c%d", i))
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := randomLinearChainProgram(rng)
		sys, err := Transform(prog)
		if err != nil {
			t.Logf("seed %d: transform failed: %v\n%s", seed, err, prog.Render(nil))
			return false
		}
		env := rel.Env{}
		for _, b := range []string{"b0", "b1", "b2"} {
			r := rel.New()
			for _, u := range universe {
				for _, v := range universe {
					if rng.Float64() < 0.18 {
						r.Add(u, v)
					}
				}
			}
			env[b] = r
		}
		want, ok1 := naiveFixpoint(prog, env, universe, 200)
		got, ok2 := solveSystem(sys, env, universe, 200)
		if !ok1 || !ok2 {
			t.Logf("seed %d: no convergence", seed)
			return false
		}
		for p := range prog.DerivedSet() {
			if !rel.Equal(want[p], got[p]) {
				t.Logf("seed %d: mismatch for %s\nprogram:\n%s\nsystem:\n%s\nwant %v\ngot  %v",
					seed, p, prog.Render(nil), sys.Render(), want[p].Pairs(), got[p].Pairs())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestNonlinearEquivalence extends statement (7) to the nonlinear programs
// Transform accepts: whenever it returns a system, the system's least
// solution is the program's fixpoint semantics.
func TestNonlinearEquivalence(t *testing.T) {
	st := symtab.NewTable()
	universe := make([]symtab.Sym, 5)
	for i := range universe {
		universe[i] = st.Intern(fmt.Sprintf("c%d", i))
	}
	accepted, nonlinear := 0, 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := randomChainProgram(rng, true)
		sys, err := Transform(prog)
		if err != nil {
			continue
		}
		accepted++
		if !analysis.Analyze(prog).LinearProgram() {
			nonlinear++
		}
		env := rel.Env{}
		for _, b := range []string{"b0", "b1", "b2"} {
			r := rel.New()
			for _, u := range universe {
				for _, v := range universe {
					if rng.Float64() < 0.18 {
						r.Add(u, v)
					}
				}
			}
			env[b] = r
		}
		want, ok1 := naiveFixpoint(prog, env, universe, 200)
		got, ok2 := solveSystem(sys, env, universe, 200)
		if !ok1 || !ok2 {
			t.Fatalf("seed %d: no convergence", seed)
		}
		for p := range prog.DerivedSet() {
			if !rel.Equal(want[p], got[p]) {
				t.Fatalf("seed %d: mismatch for %s\nprogram:\n%s\nsystem:\n%s", seed, p, prog.Render(nil), sys.Render())
			}
		}
	}
	t.Logf("%d of 400 programs transformed, %d of them nonlinear", accepted, nonlinear)
	if nonlinear == 0 {
		t.Fatal("no nonlinear program transformed")
	}
}

func TestRenderDeterministic(t *testing.T) {
	a := transform(t, paperSG)
	b := transform(t, paperSG)
	if a.Render() != b.Render() {
		t.Fatal("Render not deterministic")
	}
}

const paperSG = `
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
`

// Reverse is an involution on every system this file builds: reversing
// twice renders the system back, and the reversed system's least solution
// is the inverse of the original's, predicate by predicate — so p(X, b)
// over sys is p(b, Y) over sys.Reverse().
func TestReverseRoundTrip(t *testing.T) {
	srcs := []string{paperSG, `
tc(X, Y) :- e(X, Y).
tc(X, Z) :- e(X, Y), tc(Y, Z).
`, `
tc(X, Y) :- e(X, Y).
tc(X, Z) :- tc(X, Y), e(Y, Z).
`, `
star(X, X).
star(X, Z) :- star(X, Y), e(Y, Z).
`, `
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
`}
	var systems []*System
	for _, src := range srcs {
		systems = append(systems, transform(t, src))
	}
	for _, e := range []string{"a U p.b", "a U b.p U p.c", "a U (b.p)*.c"} {
		systems = append(systems, &System{Order: []string{"p"}, Eq: map[string]expr.Expr{"p": expr.MustParse(e)}, Derived: map[string]bool{"p": true}})
	}
	for _, sys := range systems {
		if got := sys.Reverse().Reverse().Render(); got != sys.Render() {
			t.Errorf("reversed twice:\n%swant\n%s", got, sys.Render())
		}
	}
	if got := transform(t, paperSG).Reverse().Eq["sg"].String(); got != "flat~ U down~.sg.up~" {
		t.Errorf("reversed sg = %q", got)
	}

	st := symtab.NewTable()
	universe := make([]symtab.Sym, 5)
	for i := range universe {
		universe[i] = st.Intern(fmt.Sprintf("c%d", i))
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys, err := Transform(randomLinearChainProgram(rng))
		if err != nil {
			return false
		}
		if sys.Reverse().Reverse().Render() != sys.Render() {
			t.Logf("seed %d: reversed twice:\n%s", seed, sys.Reverse().Reverse().Render())
			return false
		}
		env := rel.Env{}
		for _, b := range []string{"b0", "b1", "b2"} {
			r := rel.New()
			for _, u := range universe {
				for _, v := range universe {
					if rng.Float64() < 0.18 {
						r.Add(u, v)
					}
				}
			}
			env[b] = r
		}
		fwd, ok1 := solveSystem(sys, env, universe, 200)
		rev, ok2 := solveSystem(sys.Reverse(), env, universe, 200)
		if !ok1 || !ok2 {
			return false
		}
		for _, p := range sys.Order {
			if !rel.Equal(rel.Inverse(fwd[p]), rev[p]) {
				t.Logf("seed %d: %s of the reversed system is not the inverse\n%s", seed, p, sys.Reverse().Render())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
