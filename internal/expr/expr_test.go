package expr

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNormalizationUnion(t *testing.T) {
	a, b, c := Pred{"a"}, Pred{"b"}, Pred{"c"}
	cases := []struct {
		in   Expr
		want string
	}{
		{NewUnion(), "0"},
		{NewUnion(a), "a"},
		{NewUnion(a, b), "a U b"},
		{NewUnion(a, Empty{}, b), "a U b"},
		{NewUnion(a, a, b, a), "a U b"},
		{NewUnion(NewUnion(a, b), c), "a U b U c"},
		{NewUnion(Empty{}, Empty{}), "0"},
	}
	for _, tc := range cases {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("got %q want %q", got, tc.want)
		}
	}
}

func TestNormalizationConcat(t *testing.T) {
	a, b := Pred{"a"}, Pred{"b"}
	cases := []struct {
		in   Expr
		want string
	}{
		{NewConcat(), "id"},
		{NewConcat(a), "a"},
		{NewConcat(a, b), "a.b"},
		{NewConcat(a, Ident{}, b), "a.b"},
		{NewConcat(a, Empty{}, b), "0"},
		{NewConcat(NewConcat(a, b), a), "a.b.a"},
		{NewConcat(Ident{}, Ident{}), "id"},
	}
	for _, tc := range cases {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("got %q want %q", got, tc.want)
		}
	}
}

func TestNormalizationStarInverse(t *testing.T) {
	a := Pred{"a"}
	if got := NewStar(Empty{}).String(); got != "id" {
		t.Errorf("0* = %q", got)
	}
	if got := NewStar(Ident{}).String(); got != "id" {
		t.Errorf("id* = %q", got)
	}
	if got := NewStar(NewStar(a)).String(); got != "a*" {
		t.Errorf("(a*)* = %q", got)
	}
	if got := NewInverse(NewInverse(a)).String(); got != "a" {
		t.Errorf("(a~)~ = %q", got)
	}
	if got := NewInverse(Ident{}).String(); got != "id" {
		t.Errorf("id~ = %q", got)
	}
}

func TestParsePrintRoundTrip(t *testing.T) {
	cases := []string{
		"a",
		"id",
		"0",
		"a U b",
		"a.b",
		"a.b.c",
		"a U b.c",
		"(a U b).c",
		"a*",
		"(a.b)*",
		"a~",
		"(b3.b4* U b2.p).b1",
		"b.(d.e)*.c",
		"flat U up.sg.down",
	}
	for _, src := range cases {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		e2, err := Parse(e.String())
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", e.String(), src, err)
		}
		if !Equal(e, e2) {
			t.Fatalf("round trip changed %q: %q vs %q", src, e.String(), e2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{"", "(a", "a..b", "a U", ")", "a b"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestUnionAlternativeSyntax(t *testing.T) {
	for _, src := range []string{"a U b", "a | b", "a + b"} {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if e.String() != "a U b" {
			t.Fatalf("Parse(%q) = %q", src, e.String())
		}
	}
}

func TestContainsAndCount(t *testing.T) {
	e := MustParse("b.(d.e)*.c U p.a U p.e.p")
	if !ContainsPred(e, "p") || !ContainsPred(e, "d") {
		t.Fatal("ContainsPred misses")
	}
	if ContainsPred(e, "zz") {
		t.Fatal("ContainsPred false positive")
	}
	if n := CountPred(e, "p"); n != 3 {
		t.Fatalf("CountPred(p) = %d", n)
	}
	if got := strings.Join(Preds(e), ","); got != "a,b,c,d,e,p" {
		t.Fatalf("Preds = %q", got)
	}
}

func TestSubstitute(t *testing.T) {
	e := MustParse("a U p.b")
	got := Substitute(e, "p", MustParse("x.y"))
	if got.String() != "a U x.y.b" {
		t.Fatalf("Substitute = %q", got)
	}
	// Substituting Empty annihilates the concat term.
	got = Substitute(e, "p", Empty{})
	if got.String() != "a" {
		t.Fatalf("Substitute empty = %q", got)
	}
	// Substituting Ident drops the factor.
	got = Substitute(e, "p", Ident{})
	if got.String() != "a U b" {
		t.Fatalf("Substitute id = %q", got)
	}
}

func TestReverse(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a", "a~"},
		{"a.b", "b~.a~"},
		{"a U b", "a~ U b~"},
		{"(a.b)*", "(b~.a~)*"},
		{"a~", "a"},
		{"id", "id"},
		{"0", "0"},
	}
	for _, tc := range cases {
		got := Reverse(MustParse(tc.in), nil).String()
		if got != tc.want {
			t.Errorf("Reverse(%q) = %q want %q", tc.in, got, tc.want)
		}
	}
	// A kept predicate is a reference, not a relation to invert.
	if got := Reverse(MustParse("up.sg.down U flat"), map[string]bool{"sg": true}).String(); got != "down~.sg.up~ U flat~" {
		t.Errorf("Reverse keeping sg = %q", got)
	}
}

// Reverse is a structural involution on inverse-free expressions (on
// Inverse nodes the identity holds only semantically, since Reverse pushes
// inverses to the leaves).
func TestReverseInvolution(t *testing.T) {
	var strip func(e Expr) Expr
	strip = func(e Expr) Expr {
		switch v := e.(type) {
		case Inverse:
			return strip(v.E)
		case Union:
			ts := make([]Expr, len(v.Terms))
			for i, x := range v.Terms {
				ts[i] = strip(x)
			}
			return NewUnion(ts...)
		case Concat:
			ts := make([]Expr, len(v.Terms))
			for i, x := range v.Terms {
				ts[i] = strip(x)
			}
			return NewConcat(ts...)
		case Star:
			return NewStar(strip(v.E))
		}
		return e
	}
	f := func(seed int64) bool {
		e := strip(randomExpr(rand.New(rand.NewSource(seed)), 4))
		return Equal(Reverse(Reverse(e, nil), nil), e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeAndDepth(t *testing.T) {
	e := MustParse("b.(d.e)*.c U p.a")
	if Size(e) != 6 {
		t.Fatalf("Size = %d", Size(e))
	}
	if Size(Ident{}) != 0 || Size(Empty{}) != 0 {
		t.Fatal("Size of id/0 not 0")
	}
}

func TestUnionConcatTermsViews(t *testing.T) {
	if got := UnionTerms(Empty{}); got != nil {
		t.Fatalf("UnionTerms(0) = %v", got)
	}
	if got := len(UnionTerms(MustParse("a U b U c"))); got != 3 {
		t.Fatalf("UnionTerms len = %d", got)
	}
	if got := len(UnionTerms(Pred{"a"})); got != 1 {
		t.Fatalf("UnionTerms singleton len = %d", got)
	}
	if got := ConcatTerms(Ident{}); got != nil {
		t.Fatalf("ConcatTerms(id) = %v", got)
	}
	if got := len(ConcatTerms(MustParse("a.b.c"))); got != 3 {
		t.Fatalf("ConcatTerms len = %d", got)
	}
}

// randomExpr builds a random normalized expression over preds a,b,c.
func randomExpr(rng *rand.Rand, depth int) Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		switch rng.Intn(5) {
		case 0:
			return Pred{"a"}
		case 1:
			return Pred{"b"}
		case 2:
			return Pred{"c"}
		case 3:
			return Ident{}
		default:
			return Empty{}
		}
	}
	switch rng.Intn(4) {
	case 0:
		return NewUnion(randomExpr(rng, depth-1), randomExpr(rng, depth-1))
	case 1:
		return NewConcat(randomExpr(rng, depth-1), randomExpr(rng, depth-1))
	case 2:
		return NewStar(randomExpr(rng, depth-1))
	default:
		return NewInverse(randomExpr(rng, depth-1))
	}
}

// Property: normalization is idempotent under parse/print.
func TestNormalFormStable(t *testing.T) {
	f := func(seed int64) bool {
		e := randomExpr(rand.New(rand.NewSource(seed)), 5)
		s := e.String()
		e2, err := Parse(s)
		if err != nil {
			return false
		}
		return e2.String() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
