package automaton

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"chainlog/internal/expr"
	"chainlog/internal/paper/rel"
	"chainlog/internal/symtab"
)

// Figure 1 of the paper: M(e_p) for e_p = (b3·b4* ∪ b2·p)·b1. The
// automaton must accept exactly the words of the regular language over
// the predicate alphabet.
func TestFigure1Language(t *testing.T) {
	m := Compile(expr.MustParse("(b3.b4* U b2.p).b1"))
	accept := [][]string{
		{"b3", "b1"},
		{"b3", "b4", "b1"},
		{"b3", "b4", "b4", "b1"},
		{"b2", "p", "b1"},
	}
	reject := [][]string{
		{},
		{"b1"},
		{"b3"},
		{"b2", "b1"},
		{"b3", "b4"},
		{"p", "b1"},
		{"b3", "b1", "b1"},
		{"b2", "p", "p", "b1"},
	}
	for _, w := range accept {
		if !m.Accepts(w) {
			t.Errorf("should accept %v", w)
		}
	}
	for _, w := range reject {
		if m.Accepts(w) {
			t.Errorf("should reject %v", w)
		}
	}
}

func TestCompileAtoms(t *testing.T) {
	if m := Compile(expr.Empty{}); m.Accepts(nil) {
		t.Error("0 accepts the empty word")
	}
	if m := Compile(expr.Ident{}); !m.Accepts(nil) || m.Accepts([]string{"a"}) {
		t.Error("id should accept exactly the empty word")
	}
	m := Compile(expr.Pred{Name: "a"})
	if !m.Accepts([]string{"a"}) || m.Accepts(nil) || m.Accepts([]string{"a", "a"}) {
		t.Error("single predicate automaton wrong")
	}
	m = Compile(expr.NewInverse(expr.Pred{Name: "a"}))
	if !m.Accepts([]string{"a~"}) || m.Accepts([]string{"a"}) {
		t.Error("inverse label wrong")
	}
}

func TestStarAcceptsPowers(t *testing.T) {
	m := Compile(expr.MustParse("(a.b)*"))
	for k := 0; k <= 4; k++ {
		var w []string
		for i := 0; i < k; i++ {
			w = append(w, "a", "b")
		}
		if !m.Accepts(w) {
			t.Errorf("(a.b)* should accept %d repetitions", k)
		}
	}
	if m.Accepts([]string{"a"}) || m.Accepts([]string{"b", "a"}) {
		t.Error("(a.b)* accepts garbage")
	}
}

func TestWordsEnumeration(t *testing.T) {
	m := Compile(expr.MustParse("a U b.c"))
	words := m.Words(3)
	sort.Strings(words)
	want := []string{"a", "b c"}
	if strings.Join(words, "|") != strings.Join(want, "|") {
		t.Fatalf("Words = %v", words)
	}
}

// Property: the compiled automaton denotes the same relation as the
// expression: for random expressions and random base relations, the set
// of (u, v) with an accepting path equals rel.Eval.
func TestAutomatonMatchesRelationSemantics(t *testing.T) {
	st := symtab.NewTable()
	universe := make([]symtab.Sym, 4)
	for i := range universe {
		universe[i] = st.Intern(string(rune('u' + i)))
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomExpr(rng, 4)
		env := rel.Env{}
		for _, name := range []string{"a", "b", "c"} {
			r := rel.New()
			for _, u := range universe {
				for _, v := range universe {
					if rng.Float64() < 0.3 {
						r.Add(u, v)
					}
				}
			}
			env[name] = r
		}
		want := rel.Eval(e, env, universe)
		m := Compile(e)
		got := rel.New()
		for _, u := range universe {
			for _, v := range traverse(m, env, u) {
				got.Add(u, v)
			}
		}
		// rel.Eval's Star may include reflexive pairs for universe nodes;
		// the traversal covers the same universe, so compare directly.
		return rel.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// traverse runs the single-iteration interpretation-graph traversal of
// the automaton from (start, u) over materialized relations.
func traverse(m *NFA, env rel.Env, u symtab.Sym) []symtab.Sym {
	type node struct {
		q int
		s symtab.Sym
	}
	seen := map[node]bool{{m.Start, u}: true}
	stack := []node{{m.Start, u}}
	var out []symtab.Sym
	if m.Start == m.Final {
		out = append(out, u)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		m.Out(n.q, func(_ int, t Trans) {
			var vs []symtab.Sym
			switch {
			case t.Label.IsID():
				vs = []symtab.Sym{n.s}
			case t.Label.Inv:
				if r, ok := env[t.Label.Pred]; ok {
					vs = rel.Inverse(r).Successors(n.s)
				}
			default:
				if r, ok := env[t.Label.Pred]; ok {
					vs = r.Successors(n.s)
				}
			}
			for _, v := range vs {
				nn := node{t.To, v}
				if !seen[nn] {
					seen[nn] = true
					stack = append(stack, nn)
					if nn.q == m.Final {
						out = append(out, v)
					}
				}
			}
		})
	}
	return out
}

func randomExpr(rng *rand.Rand, depth int) expr.Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		switch rng.Intn(5) {
		case 0:
			return expr.Pred{Name: "a"}
		case 1:
			return expr.Pred{Name: "b"}
		case 2:
			return expr.Pred{Name: "c"}
		case 3:
			return expr.Ident{}
		default:
			return expr.Empty{}
		}
	}
	switch rng.Intn(4) {
	case 0:
		return expr.NewUnion(randomExpr(rng, depth-1), randomExpr(rng, depth-1))
	case 1:
		return expr.NewConcat(randomExpr(rng, depth-1), randomExpr(rng, depth-1))
	case 2:
		return expr.NewStar(randomExpr(rng, depth-1))
	default:
		return expr.NewInverse(randomExpr(rng, depth-1))
	}
}

// EM expansion primitive: replacing a derived transition with a copy of a
// sub-automaton preserves the language with the derived symbol expanded
// (Figure 2's construction).
func TestAddCopyExpansion(t *testing.T) {
	// e_p = (b3.b4* U b2.p).b1; e_r for the derived p: b5.b6
	em := Compile(expr.MustParse("(b3.b4* U b2.p).b1"))
	sub := Compile(expr.MustParse("b5.b6"))

	// Find the transition on p.
	var pid int = -1
	em.Each(func(id int, tr Trans) {
		if tr.Label.Pred == "p" {
			pid = id
		}
	})
	if pid < 0 {
		t.Fatal("no transition on p")
	}
	tr := em.Trans(pid)
	start, final := em.AddCopy(sub)
	em.AddTrans(tr.From, Label{}, start)
	em.AddTrans(final, Label{}, tr.To)
	em.Remove(pid)

	if em.Accepts([]string{"b2", "p", "b1"}) {
		t.Error("expanded automaton still accepts p")
	}
	if !em.Accepts([]string{"b2", "b5", "b6", "b1"}) {
		t.Error("expanded automaton rejects the expansion")
	}
	if !em.Accepts([]string{"b3", "b1"}) {
		t.Error("expansion broke unrelated paths")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := Compile(expr.MustParse("a.b"))
	c := m.Clone()
	// Remove a transition from the clone; original unaffected.
	var anyID int = -1
	c.Each(func(id int, tr Trans) {
		if tr.Label.Pred == "a" {
			anyID = id
		}
	})
	c.Remove(anyID)
	if c.Accepts([]string{"a", "b"}) {
		t.Error("clone still accepts after removal")
	}
	if !m.Accepts([]string{"a", "b"}) {
		t.Error("original damaged by clone mutation")
	}
	if m.NumTrans() == c.NumTrans() {
		t.Error("NumTrans should differ after removal")
	}
}

func TestStringRender(t *testing.T) {
	m := Compile(expr.MustParse("a"))
	s := m.String()
	if !strings.Contains(s, "-a->") || !strings.Contains(s, "start=") {
		t.Fatalf("String() = %q", s)
	}
}

// A3 (Horner) ablation support: the automaton for the Horner-form sg_i
// grows linearly in i, while the expanded form sg'_i grows quadratically
// (the paper: sg_i is "essentially smaller, by a factor of i").
func TestHornerExpressionSizes(t *testing.T) {
	horner := func(i int) expr.Expr {
		e := expr.Expr(expr.Pred{Name: "flat"})
		for k := 1; k < i; k++ {
			e = expr.NewUnion(expr.Pred{Name: "flat"},
				expr.NewConcat(expr.Pred{Name: "up"}, e, expr.Pred{Name: "down"}))
		}
		return e
	}
	expanded := func(i int) expr.Expr {
		terms := []expr.Expr{expr.Pred{Name: "flat"}}
		for k := 1; k < i; k++ {
			seq := []expr.Expr{}
			for j := 0; j < k; j++ {
				seq = append(seq, expr.Pred{Name: "up"})
			}
			seq = append(seq, expr.Pred{Name: "flat"})
			for j := 0; j < k; j++ {
				seq = append(seq, expr.Pred{Name: "down"})
			}
			terms = append(terms, expr.NewConcat(seq...))
		}
		return expr.NewUnion(terms...)
	}
	for _, i := range []int{4, 8} {
		h, x := expr.Size(horner(i)), expr.Size(expanded(i))
		if h >= x {
			t.Fatalf("horner size %d not smaller than expanded %d at i=%d", h, x, i)
		}
		// Horner is linear (3i-2); expanded is quadratic (i + 2·(1+...+(i-1))).
		if h != 3*i-2 {
			t.Fatalf("horner size = %d, want %d", h, 3*i-2)
		}
		if x != i+i*(i-1) {
			t.Fatalf("expanded size = %d, want %d", x, i+i*(i-1))
		}
	}
}

// TestAnnotatePreserved pins the edge-annotation contract: Annotate
// stamps Kind/Aux on every live edge, and the annotation survives
// AddCopy, Clone and CloneInto — so annotating each compiled M(e_r) once
// is enough for every EM(p,i) spliced together from copies.
func TestAnnotatePreserved(t *testing.T) {
	m := Compile(expr.MustParse("up.sg.down U flat U up~"))
	derived := map[string]bool{"sg": true}
	aux := map[string]int32{"up": 0, "down": 1, "flat": 2}
	m.Annotate(func(p string) bool { return derived[p] }, func(p string) int32 { return aux[p] })

	check := func(t *testing.T, n *NFA) {
		t.Helper()
		seen := 0
		for q := 0; q < n.NumStates(); q++ {
			for i := range n.Edges(q) {
				e := &n.Edges(q)[i]
				if e.Removed() {
					continue
				}
				seen++
				switch {
				case e.Label.IsID():
					if e.Kind != KindID {
						t.Fatalf("id edge has kind %d", e.Kind)
					}
				case derived[e.Label.Pred]:
					if e.Kind != KindDerived {
						t.Fatalf("edge %s not marked derived", e.Label)
					}
				case e.Label.Inv:
					if e.Kind != KindBaseInv || e.Aux != aux[e.Label.Pred] {
						t.Fatalf("edge %s kind=%d aux=%d", e.Label, e.Kind, e.Aux)
					}
				default:
					if e.Kind != KindBase || e.Aux != aux[e.Label.Pred] {
						t.Fatalf("edge %s kind=%d aux=%d", e.Label, e.Kind, e.Aux)
					}
				}
			}
		}
		if seen == 0 {
			t.Fatal("no live edges seen")
		}
	}
	check(t, m)
	check(t, m.Clone())

	var dst NFA
	m.CloneInto(&dst)
	check(t, &dst)

	// Splice an annotated copy into a fresh automaton, the EM expansion
	// primitive, and re-check the copied region.
	host := Compile(expr.MustParse("flat"))
	host.Annotate(func(p string) bool { return derived[p] }, func(p string) int32 { return aux[p] })
	host.AddCopy(m)
	check(t, host)
}
