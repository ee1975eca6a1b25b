package rel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"chainlog/internal/expr"
	"chainlog/internal/symtab"
)

func syms(n int) (*symtab.Table, []symtab.Sym) {
	st := symtab.NewTable()
	out := make([]symtab.Sym, n)
	for i := range out {
		out[i] = st.Intern(string(rune('a' + i)))
	}
	return st, out
}

func randomRel(rng *rand.Rand, universe []symtab.Sym, density float64) *Rel {
	r := New()
	for _, u := range universe {
		for _, v := range universe {
			if rng.Float64() < density {
				r.Add(u, v)
			}
		}
	}
	return r
}

func TestAddHasLen(t *testing.T) {
	_, s := syms(3)
	r := New()
	if !r.Add(s[0], s[1]) {
		t.Fatal("first Add returned false")
	}
	if r.Add(s[0], s[1]) {
		t.Fatal("duplicate Add returned true")
	}
	if !r.Has(s[0], s[1]) || r.Has(s[1], s[0]) {
		t.Fatal("Has misreports")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestPairsSorted(t *testing.T) {
	_, s := syms(3)
	r := FromPairs([][2]symtab.Sym{{s[2], s[0]}, {s[0], s[1]}, {s[0], s[0]}})
	p := r.Pairs()
	for i := 1; i < len(p); i++ {
		if p[i-1][0] > p[i][0] || (p[i-1][0] == p[i][0] && p[i-1][1] >= p[i][1]) {
			t.Fatalf("Pairs not sorted: %v", p)
		}
	}
}

func TestComposeBasics(t *testing.T) {
	_, s := syms(4)
	ab := FromPairs([][2]symtab.Sym{{s[0], s[1]}})
	bc := FromPairs([][2]symtab.Sym{{s[1], s[2]}})
	got := Compose(ab, bc)
	if got.Len() != 1 || !got.Has(s[0], s[2]) {
		t.Fatalf("Compose = %v", got.Pairs())
	}
	if Compose(ab, New()).Len() != 0 {
		t.Fatal("compose with empty should be empty")
	}
}

func TestStarIncludesReflexive(t *testing.T) {
	_, s := syms(4)
	r := FromPairs([][2]symtab.Sym{{s[0], s[1]}, {s[1], s[2]}})
	star := Star(r, s)
	for _, x := range s {
		if !star.Has(x, x) {
			t.Fatalf("missing reflexive pair for %v", x)
		}
	}
	if !star.Has(s[0], s[2]) {
		t.Fatal("missing transitive pair")
	}
	if star.Has(s[2], s[0]) {
		t.Fatal("spurious pair")
	}
}

func TestPlusExcludesReflexiveUnlessCycle(t *testing.T) {
	_, s := syms(3)
	r := FromPairs([][2]symtab.Sym{{s[0], s[1]}, {s[1], s[0]}})
	plus := Plus(r)
	if !plus.Has(s[0], s[0]) {
		t.Fatal("cycle node missing from transitive closure")
	}
	chain := FromPairs([][2]symtab.Sym{{s[0], s[1]}})
	if Plus(chain).Has(s[0], s[0]) {
		t.Fatal("chain node spuriously reflexive in r+")
	}
}

func TestInverseDomainRange(t *testing.T) {
	_, s := syms(3)
	r := FromPairs([][2]symtab.Sym{{s[0], s[1]}, {s[0], s[2]}})
	inv := Inverse(r)
	if !inv.Has(s[1], s[0]) || !inv.Has(s[2], s[0]) || inv.Len() != 2 {
		t.Fatal("Inverse wrong")
	}
	if d := r.Domain(); len(d) != 1 || d[0] != s[0] {
		t.Fatalf("Domain = %v", d)
	}
	if rg := r.Range(); len(rg) != 2 {
		t.Fatalf("Range = %v", rg)
	}
	if f := r.Field(); len(f) != 3 {
		t.Fatalf("Field = %v", f)
	}
}

func TestReachableAndImage(t *testing.T) {
	_, s := syms(5)
	r := FromPairs([][2]symtab.Sym{{s[0], s[1]}, {s[1], s[2]}, {s[3], s[4]}})
	got := ReachableFrom(r, []symtab.Sym{s[0]})
	if len(got) != 3 {
		t.Fatalf("ReachableFrom = %v", got)
	}
	img := Image(r, []symtab.Sym{s[0], s[3]})
	if len(img) != 2 || img[0] != s[1] || img[1] != s[4] {
		t.Fatalf("Image = %v", img)
	}
}

func TestSolveLinearSameGeneration(t *testing.T) {
	st, _ := syms(0)
	i := func(n string) symtab.Sym { return st.Intern(n) }
	up := FromPairs([][2]symtab.Sym{{i("john"), i("p")}, {i("ann"), i("p")}})
	flat := FromPairs([][2]symtab.Sym{{i("p"), i("p")}})
	down := FromPairs([][2]symtab.Sym{{i("p"), i("john")}, {i("p"), i("ann")}})
	sg, converged := SolveLinear(flat, up, down, 100)
	if !converged {
		t.Fatal("did not converge")
	}
	if !sg.Has(i("john"), i("ann")) || !sg.Has(i("john"), i("john")) {
		t.Fatalf("sg = %v", sg.Pairs())
	}
}

// --- Property tests (testing/quick) over random relations ---

func TestComposeAssociative(t *testing.T) {
	_, s := syms(5)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRel(rng, s, 0.3)
		b := randomRel(rng, s, 0.3)
		c := randomRel(rng, s, 0.3)
		return Equal(Compose(Compose(a, b), c), Compose(a, Compose(b, c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInverseAntiHomomorphism(t *testing.T) {
	_, s := syms(5)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRel(rng, s, 0.3)
		b := randomRel(rng, s, 0.3)
		// (a·b)⁻¹ = b⁻¹·a⁻¹
		return Equal(Inverse(Compose(a, b)), Compose(Inverse(b), Inverse(a)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStarIdempotent(t *testing.T) {
	_, s := syms(5)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRel(rng, s, 0.25)
		st := Star(a, s)
		return Equal(Star(st, s), st)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStarIsLeastFixpoint(t *testing.T) {
	_, s := syms(5)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRel(rng, s, 0.25)
		star := Star(a, s)
		// star must satisfy star ⊇ id ∪ a·star.
		id := New()
		for _, x := range s {
			id.Add(x, x)
		}
		rhs := Union(id, Compose(a, star))
		okContains := true
		rhs.Each(func(u, v symtab.Sym) {
			if !star.Has(u, v) {
				okContains = false
			}
		})
		// and equal it (least fixpoint): star ⊆ rhs as well.
		star.Each(func(u, v symtab.Sym) {
			if !rhs.Has(u, v) {
				okContains = false
			}
		})
		return okContains
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionCommutativeIdempotent(t *testing.T) {
	_, s := syms(5)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRel(rng, s, 0.3)
		b := randomRel(rng, s, 0.3)
		return Equal(Union(a, b), Union(b, a)) && Equal(Union(a, a), a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestComposeDistributesOverUnion(t *testing.T) {
	_, s := syms(5)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRel(rng, s, 0.3)
		b := randomRel(rng, s, 0.3)
		c := randomRel(rng, s, 0.3)
		return Equal(Compose(a, Union(b, c)), Union(Compose(a, b), Compose(a, c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Eval agrees with hand-computed algebra on random expressions: the
// expression (a·b)* evaluated via Eval equals Star(Compose(a,b)).
func TestEvalMatchesAlgebra(t *testing.T) {
	_, s := syms(5)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRel(rng, s, 0.3)
		b := randomRel(rng, s, 0.3)
		env := Env{"a": a, "b": b}
		e := expr.MustParse("(a.b)* U b~")
		got := Eval(e, env, s)
		want := Union(Star(Compose(a, b), s), Inverse(b))
		return Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalMissingPredIsEmpty(t *testing.T) {
	_, s := syms(3)
	got := Eval(expr.MustParse("zz.a"), Env{}, s)
	if got.Len() != 0 {
		t.Fatal("missing predicate should denote empty")
	}
}
