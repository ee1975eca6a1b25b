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
			for _, v := range traverse(m, env, u).answers {
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

// traversal is what a single-iteration traversal found: the terms at
// Final, its (state, term) nodes, and its probes — one per transition
// leaving a node's state, at the transition's head edge, as the
// evaluator probes.
type traversal struct {
	answers       []symtab.Sym
	nodes, probes int
}

// traverse runs the single-iteration interpretation-graph traversal of
// the automaton from (start, u) over materialized relations.
func traverse(m *NFA, env rel.Env, u symtab.Sym) traversal {
	type node struct {
		q int
		s symtab.Sym
	}
	var tr traversal
	seen := map[node]bool{}
	var stack []node
	visit := func(q int, v symtab.Sym) {
		if n := (node{q, v}); !seen[n] {
			seen[n] = true
			stack = append(stack, n)
			if q == m.Final {
				tr.answers = append(tr.answers, v)
			}
		}
	}
	visit(m.Start, u)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var vs []symtab.Sym
		for _, e := range m.Edges(n.q) {
			switch {
			case e.Removed():
				continue
			case e.Label.IsID():
				vs = []symtab.Sym{n.s}
			case e.Fan:
			case e.Label.Inv:
				tr.probes++
				vs = rel.Inverse(env[e.Label.Pred]).Successors(n.s)
			default:
				tr.probes++
				vs = env[e.Label.Pred].Successors(n.s)
			}
			for _, v := range vs {
				visit(int(e.To), v)
			}
		}
	}
	tr.nodes = len(seen)
	return tr
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

// derivedEdge returns the state and edge index of the transition on pred.
func derivedEdge(t *testing.T, m *NFA, pred string) (q, i int) {
	t.Helper()
	for q := 0; q < m.NumStates(); q++ {
		for i := range m.Edges(q) {
			if e := &m.Edges(q)[i]; !e.Removed() && !e.Fan && e.Label.Pred == pred {
				return q, i
			}
		}
	}
	t.Fatalf("no transition on %s", pred)
	return 0, 0
}

// EM expansion primitive: replacing a derived transition with a copy of a
// sub-automaton preserves the language with the derived symbol expanded
// (Figure 2's construction), and adds no pass-through state: the copy
// brings only the states of its own occurrences.
func TestSpliceExpansion(t *testing.T) {
	// e_p = (b3.b4* U b2.p).b1; e_r for the derived p: b5.b6
	em := Compile(expr.MustParse("(b3.b4* U b2.p).b1"))
	sub := Compile(expr.MustParse("b5.b6"))
	before := em.NumStates()

	q, i := derivedEdge(t, em, "p")
	entries := len(em.Edges(q))
	if first := em.Splice(q, i, sub); first != before {
		t.Fatalf("copy starts at q%d, want q%d", first, before)
	}
	if got := em.NumStates() - before; got != sub.NumStates()-2 {
		t.Fatalf("splice added %d states, want %d (no copy of Start or Final)", got, sub.NumStates()-2)
	}
	if es := em.Edges(q)[entries:]; len(es) != 1 || es[0].Label.Pred != "b5" {
		t.Fatalf("entry edges of the copy = %v", es)
	}
	em.Each(func(tr Trans) {
		if tr.Label.IsID() {
			t.Errorf("splice introduced an id transition: %v", tr)
		}
	})

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

// A derived transition with several targets is one transition: it is
// expanded once, and the copy's exits fan out to every target. A nullable
// body leaves an identity from the expanded state to each of them.
func TestSpliceFansOutExits(t *testing.T) {
	em := Compile(expr.MustParse("a.p.(b U c)"))
	q, i := derivedEdge(t, em, "p")
	if es := em.Edges(q); len(es) != 2 || !es[1].Fan {
		t.Fatalf("p should be one transition with two targets, got %v", es)
	}
	em.Splice(q, i, Compile(expr.MustParse("d*")))
	for _, w := range [][]string{{"a", "b"}, {"a", "c"}, {"a", "d", "b"}, {"a", "d", "d", "c"}} {
		if !em.Accepts(w) {
			t.Errorf("should accept %v", w)
		}
	}
	for _, w := range [][]string{{"a"}, {"a", "d"}, {"a", "p", "b"}, {"d", "b"}} {
		if em.Accepts(w) {
			t.Errorf("should reject %v", w)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := Compile(expr.MustParse("a.p"))
	var c NFA
	m.CloneInto(&c)
	// Expand p in the clone; the original is unaffected.
	q, i := derivedEdge(t, &c, "p")
	c.Splice(q, i, Compile(expr.MustParse("b.c")))
	if !c.Accepts([]string{"a", "b", "c"}) || c.Accepts([]string{"a", "p"}) {
		t.Error("clone not expanded")
	}
	if !m.Accepts([]string{"a", "p"}) || m.Accepts([]string{"a", "b", "c"}) {
		t.Error("original damaged by clone mutation")
	}
	if m.NumStates() == c.NumStates() {
		t.Error("NumStates should differ after the splice")
	}
}

// The paper's two printed automata, exactly: M(e_sg) is the minimal
// four-state machine, and Figure 1's has one state per occurrence that
// follows another (b4, p, b1) beside Start and Final. Lemma 1's tc =
// e*.e spells two e's the same transitions reach, and they are one
// state; two words that begin alike share their first probe on Start.
func TestStringRender(t *testing.T) {
	for _, tc := range []struct{ e, want string }{
		{"a", "start=q0 final=q1 states=2\nq0 -a-> q1\n"},
		{"flat U up.sg.down", `start=q0 final=q1 states=4
q0 -flat-> q1
q0 -up-> q2
q2 -sg-> q3
q3 -down-> q1
`},
		{"(b3.b4* U b2.p).b1", `start=q0 final=q1 states=5
q0 -b3-> q2
q0 -b3-> q4
q0 -b2-> q3
q2 -b4-> q2
q2 -b4-> q4
q3 -p-> q4
q4 -b1-> q1
`},
		{"a*.b U c", "start=q0 final=q1 states=4\nq0 -id-> q2\nq0 -id-> q3\nq0 -c-> q1\nq2 -a-> q2\nq2 -a-> q3\nq3 -b-> q1\n"},
		{"a*", "start=q0 final=q1 states=3\nq0 -id-> q1\nq0 -id-> q2\nq2 -a-> q1\nq2 -a-> q2\n"},
		{"e*.e", "start=q0 final=q1 states=3\nq0 -id-> q2\nq2 -e-> q1\nq2 -e-> q2\n"},
		{"up.flat.down U up.up.flat.down.down", `start=q0 final=q1 states=8
q0 -up-> q2
q0 -up-> q4
q2 -flat-> q3
q3 -down-> q1
q4 -up-> q5
q5 -flat-> q6
q6 -down-> q7
q7 -down-> q1
`},
	} {
		if got := Compile(expr.MustParse(tc.e)).String(); got != tc.want {
			t.Errorf("M(%s) =\n%swant\n%s", tc.e, got, tc.want)
		}
	}
}

// CompileRegular's Final is the state of the class that holds its terms:
// tc = e*.e and tcn = e.e* are one state that reads e and answers, Start
// copying the loop's transition where tc's id entry would have made the
// query term an answer; a nullable closure keeps the id entry, which is
// Final's own. Where another class also ends a word, Final stays a sink.
func TestCompileRegularRender(t *testing.T) {
	loop := "start=q0 final=q1 states=2\nq0 -e-> q1\nq1 -e-> q1\n"
	for _, tc := range []struct{ e, want string }{
		{"e*.e", loop},
		{"e.e*", loop},
		{"a*", "start=q0 final=q1 states=2\nq0 -id-> q1\nq1 -a-> q1\n"},
		{"flat.down*", "start=q0 final=q1 states=2\nq0 -flat-> q1\nq1 -down-> q1\n"},
		{"(a.b)*.a.b", `start=q0 final=q1 states=3
q0 -a-> q2
q1 -a-> q2
q2 -b-> q1
`},
		{"a", "start=q0 final=q1 states=2\nq0 -a-> q1\n"},
		{"e*.e U f", "start=q0 final=q1 states=3\nq0 -id-> q2\nq0 -f-> q1\nq2 -e-> q1\nq2 -e-> q2\n"},
	} {
		if got := CompileRegular(expr.MustParse(tc.e)).String(); got != tc.want {
			t.Errorf("M(%s) =\n%swant\n%s", tc.e, got, tc.want)
		}
	}
}

// Splice needs the sink Final that Compile leaves: spliced into an EM,
// the copy's edges into Final become the replaced transition's exits,
// and a Final with transitions of its own would lose them. Expanding sg
// level after level never trips the guard; splicing an automaton
// CompileRegular merged Final into does.
func TestSpliceGuard(t *testing.T) {
	sg := Compile(expr.MustParse("flat U up.sg.down"))
	var em NFA
	sg.CloneInto(&em)
	for level := 0; level < 8; level++ {
		q, i := derivedEdge(t, &em, "sg")
		em.Splice(q, i, sg)
	}
	if !em.Accepts([]string{"up", "up", "flat", "down", "down"}) {
		t.Fatal("expanded sg rejects up.up.flat.down.down")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Splice of a CompileRegular automaton did not panic")
		}
	}()
	q, i := derivedEdge(t, &em, "sg")
	em.Splice(q, i, CompileRegular(expr.MustParse("e*.e")))
}

// The shape the evaluator's one-probe-per-node accounting rests on, over
// random expressions: every state other than Start leaves by exactly one
// transition (Final by none), equal probes are adjacent (a Fan edge
// repeats its head's label), and only Start leaves by an identity.
//
// CompileRegular keeps that shape with Final allowed the one transition
// of the class it merged, and leaves no dead state: every state but
// Start is entered.
func TestOneTransitionPerState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 500; k++ {
		e := randomExpr(rng, 5)
		m := Compile(e)
		if m.Start != 0 || m.Final != 1 || len(m.Edges(m.Final)) != 0 {
			t.Fatalf("M(%s): start/final = %d/%d, final has %d edges", e, m.Start, m.Final, len(m.Edges(m.Final)))
		}
		checkOneTransition(t, e, m, 2)
		r := CompileRegular(e)
		if r.Start != 0 || r.Final != 1 {
			t.Fatalf("regular M(%s): start/final = %d/%d", e, r.Start, r.Final)
		}
		final := Compile(e).NumStates() - r.NumStates()
		if final != 0 && final != 1 {
			t.Fatalf("regular M(%s) has %d states, Compile's %d", e, r.NumStates(), r.NumStates()+final)
		}
		checkOneTransition(t, e, r, 2-final)
		entered := make([]bool, r.NumStates())
		r.Each(func(tr Trans) { entered[tr.To] = true })
		for q := 1; q < r.NumStates(); q++ {
			if !entered[q] && q != r.Final {
				t.Fatalf("regular M(%s): q%d is never entered\n%s", e, q, r)
			}
		}
	}
}

// checkOneTransition checks the shape on m: states from first on leave
// by exactly one transition.
func checkOneTransition(t *testing.T, e expr.Expr, m *NFA, first int) {
	t.Helper()
	for q := 0; q < m.NumStates(); q++ {
		heads := 0
		es := m.Edges(q)
		for i := range es {
			switch {
			case es[i].Label.IsID():
				if q != m.Start {
					t.Fatalf("M(%s): id transition q%d -> q%d", e, q, es[i].To)
				}
			case !es[i].Fan:
				heads++
			case i == 0 || es[i-1].Label != es[i].Label:
				t.Fatalf("M(%s): q%d edge %d fans out of nothing", e, q, i)
			}
		}
		if q >= first && heads != 1 {
			t.Fatalf("M(%s): state q%d leaves by %d transitions, want 1\n%s", e, q, heads, m)
		}
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
		// The automata keep the factor. Horner's has one state per
		// occurrence that follows another: every one but the outermost
		// flat and up, which only begin a word. The expanded form's is a
		// prefix trie of its i words: the k-th ups of every term are
		// reached by the same transitions, so they share a state (Start,
		// Final, i-2 ups and i-1 flats: 1 + 2(i-1) states), but each term's
		// downs follow a flat of their own and keep theirs — the i(i-1)/2
		// downs are what stays quadratic.
		if got := Compile(horner(i)).NumStates(); got != h {
			t.Fatalf("M(horner %d) has %d states, want %d", i, got, h)
		}
		if got, want := Compile(expanded(i)).NumStates(), 1+2*(i-1)+i*(i-1)/2; got != want {
			t.Fatalf("M(expanded %d) has %d states, want %d", i, got, want)
		}
		// Without the merge every occurrence that follows another has a
		// state of its own: all but the i that begin a word.
		if got := compile(expanded(i), perOccurrence).NumStates(); got != x-i+2 {
			t.Fatalf("unmerged M(expanded %d) has %d states, want %d", i, got, x-i+2)
		}
	}
}

// TestAnnotatePreserved pins the edge-annotation contract: Annotate
// stamps Kind/Aux on every live edge, and the annotation survives
// Splice and CloneInto — so annotating each compiled M(e_r) once
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

	var dst NFA
	m.CloneInto(&dst)
	check(t, &dst)

	// Splice an annotated copy into the clone, the EM expansion
	// primitive, and re-check the copied region.
	q, i := derivedEdge(t, &dst, "sg")
	dst.Splice(q, i, m)
	check(t, &dst)
}

// Accepts reports whether the automaton accepts the word (a sequence of
// labels rendered as strings, e.g. "up", "flat", "down", with id
// transitions taken silently): language equivalence between expressions
// and automata.
func (m *NFA) Accepts(word []string) bool {
	cur := m.closure(map[int]bool{m.Start: true})
	for _, sym := range word {
		next := make(map[int]bool)
		for q := range cur {
			m.Out(q, func(t Trans) {
				if !t.Label.IsID() && t.Label.String() == sym {
					next[t.To] = true
				}
			})
		}
		cur = m.closure(next)
		if len(cur) == 0 {
			return false
		}
	}
	return cur[m.Final]
}

// closure extends a state set along id transitions.
func (m *NFA) closure(set map[int]bool) map[int]bool {
	stack := make([]int, 0, len(set))
	for q := range set {
		stack = append(stack, q)
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		m.Out(q, func(t Trans) {
			if t.Label.IsID() && !set[t.To] {
				set[t.To] = true
				stack = append(stack, t.To)
			}
		})
	}
	return set
}

// Words enumerates all label words of length <= maxLen accepted by the
// automaton.
func (m *NFA) Words(maxLen int) []string {
	var out []string
	type item struct {
		states map[int]bool
		word   []string
	}
	queue := []item{{states: m.closure(map[int]bool{m.Start: true})}}
	seen := map[string]bool{}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if it.states[m.Final] {
			w := strings.Join(it.word, " ")
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
		if len(it.word) == maxLen {
			continue
		}
		syms := map[string]bool{}
		for q := range it.states {
			m.Out(q, func(t Trans) {
				if !t.Label.IsID() {
					syms[t.Label.String()] = true
				}
			})
		}
		for sym := range syms {
			next := make(map[int]bool)
			for q := range it.states {
				m.Out(q, func(t Trans) {
					if !t.Label.IsID() && t.Label.String() == sym {
						next[t.To] = true
					}
				})
			}
			queue = append(queue, item{states: m.closure(next), word: append(append([]string(nil), it.word...), sym)})
		}
	}
	return out
}
