package binchain

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"chainlog/internal/chaineval"
	"chainlog/internal/equations"
	"chainlog/internal/symtab"
)

// DecodeAnswers expands a result set into rows, dropping those in which
// a repeated free variable would take two different values: what a
// served plan's projection does, for the tests' own traversals. The rows
// are copies: they outlive the run's Reset.
func (r *Run) DecodeAnswers(syms []symtab.Sym) [][]symtab.Sym {
	var rows [][]symtab.Sym
	first := map[string]int{}
	for i, v := range r.t.FreeVars {
		if _, ok := first[v]; !ok {
			first[v] = i
		}
	}
	for _, s := range syms {
		row := r.DecodeAnswer(s)
		if len(row) != len(r.t.FreeVars) {
			continue
		}
		ok := true
		for i, v := range r.t.FreeVars {
			if row[first[v]] != row[i] {
				ok = false
				break
			}
		}
		if ok {
			rows = append(rows, slices.Clone(row))
		}
	}
	return rows
}

func TestTupleInterning(t *testing.T) {
	ts := newTerms(3)
	a, b := symtab.Sym(7), symtab.Sym(9)
	t1 := ts.intern([]symtab.Sym{a, b})
	if t1 == symtab.None {
		t.Fatal("a tuple got the None id")
	}
	if t2 := ts.intern([]symtab.Sym{a, b}); t2 != t1 {
		t.Fatal("equal tuples interned to different terms")
	}
	if t3 := ts.intern([]symtab.Sym{b, a}); t3 == t1 {
		t.Fatal("order-sensitive tuples collided")
	}
	if e := ts.elems(t1); !slices.Equal(e, []symtab.Sym{a, b}) {
		t.Fatalf("elems = %v", e)
	}
	for _, s := range []symtab.Sym{symtab.None, 3, -1} {
		if e := ts.elems(s); e != nil {
			t.Errorf("elems(%d) = %v for no term", s, e)
		}
	}
}

// The empty tuple decodes to an empty, non-nil slice: a virtual relation
// reads nil as "no such term", so an all-free query would answer nothing.
// The count column keeps it apart from a tuple of None padding.
func TestEmptyTuple(t *testing.T) {
	ts := newTerms(2)
	e1 := ts.intern(nil)
	if e2 := ts.intern([]symtab.Sym{}); e2 != e1 {
		t.Fatal("empty tuples differ")
	}
	if e := ts.elems(e1); e == nil || len(e) != 0 {
		t.Fatalf("elems(t()) = %#v, want empty and non-nil", e)
	}
	if ts.intern([]symtab.Sym{symtab.None}) == e1 {
		t.Fatal("t() and t(None) collided")
	}
	if e := newTerms(0); e.elems(e.intern(nil)) == nil {
		t.Fatal("elems(t()) is nil on a table of width 0")
	}
}

// Property: interning is injective — two tuples get one term iff their
// element sequences are equal.
func TestTupleInjective(t *testing.T) {
	const width = 6
	ts := newTerms(width)
	tuple := func(xs []uint8) []symtab.Sym {
		out := make([]symtab.Sym, 0, width)
		for _, x := range xs[:min(len(xs), width)] {
			out = append(out, symtab.Sym(x%40))
		}
		return out
	}
	f := func(xs, ys []uint8) bool {
		tx, ty := tuple(xs), tuple(ys)
		sx, sy := ts.intern(tx), ts.intern(ty)
		return (sx == sy) == slices.Equal(tx, ty) && slices.Equal(ts.elems(sx), tx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the table copies — changing the input slice after interning
// does not change the stored elements.
func TestTupleDefensiveCopy(t *testing.T) {
	ts := newTerms(2)
	in := []symtab.Sym{7, 9}
	s := ts.intern(in)
	in[0] = 9
	if e := ts.elems(s); e[0] != 7 {
		t.Fatal("interned tuple aliases the caller's slice")
	}
}

// A run's tuple terms end with it: no term of one run decodes in a later
// run of the same Transformed, fresh or reset, and the later run answers
// as the first did, on the first's engine through Over. No run grows the
// symbol table.
func TestTermsEndWithTheirRun(t *testing.T) {
	fx := load(t, flightSrc)
	before := fx.st.Len()
	first, res := runTransformed(t, fx, "cnx(hel, 900, D, AT)", false)
	n := first.terms.tab.Rows()
	if n < 2 {
		t.Fatalf("the run met %d terms", n)
	}
	want := first.DecodeAnswers(res.Answers)
	tr := first.t
	if d := tr.Describe(); !strings.Contains(d, "query: bin_cnx_bbff(t(hel,900), V)") {
		t.Fatalf("Describe = %q", d)
	}
	sys, err := equations.Transform(tr.Program)
	if err != nil {
		t.Fatal(err)
	}
	eng := chaineval.New(sys, nil, chaineval.Options{})
	first.Reset()
	fresh := tr.NewRun()
	for _, later := range []*Run{&fresh, first} {
		for s := symtab.Sym(1); s <= symtab.Sym(n); s++ {
			if e := later.DecodeAnswer(s); e != nil {
				t.Fatalf("term %d of an earlier run decodes to %v", s, e)
			}
		}
		a := later.Bind(nil)
		if e := later.DecodeAnswer(a); !slices.Equal(e, []symtab.Sym{fx.st.Intern("hel"), fx.st.Intern("900")}) {
			t.Fatalf("the start term decodes to %v", e)
		}
		res, err := eng.Over(later).Query(tr.QueryPred, a)
		if err != nil {
			t.Fatal(err)
		}
		if got := later.DecodeAnswers(res.Answers); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("a later run answers %v, want %v", got, want)
		}
	}
	if fx.st.Len() != before {
		t.Fatalf("Section 4 runs grew the symbol table from %d to %d", before, fx.st.Len())
	}
}
