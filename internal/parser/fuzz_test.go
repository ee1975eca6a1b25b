package parser

import (
	"reflect"
	"testing"

	"chainlog/internal/symtab"
)

// FuzzParse checks that the parser never panics and that anything it
// accepts round-trips through render → reparse with a stable program and
// the same fact columns.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"sg(X, Y) :- flat(X, Y).",
		"sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).",
		"flat(a, b). up(a, c).",
		"p(X, X).",
		"cnx(S, DT, D, AT) :- flight(S, DT, D1, AT1), AT1 < DT1, cnx(D1, DT1, D, AT).",
		"q('New York', 900).",
		"% comment\np(X) :- q(X, Y), X <= Y.",
		"p :- q(a).",
		"p(X) :- q(X), X != 3.",
		"((((",
		"p(X :-",
		"'",
		"p(X) :- .",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st := symtab.NewTable()
		res, err := Parse(src, st)
		if err != nil {
			return // rejection is fine; panics are not
		}
		rendered := res.Program.Render(st) + FormatFacts(res.Facts, st)
		res2, err := Parse(rendered, st)
		if err != nil {
			t.Fatalf("accepted program failed to reparse: %v\noriginal: %q\nrendered: %q", err, src, rendered)
		}
		rendered2 := res2.Program.Render(st) + FormatFacts(res2.Facts, st)
		if rendered != rendered2 {
			t.Fatalf("render not stable:\n%q\nvs\n%q", rendered, rendered2)
		}
		if !reflect.DeepEqual(res.Columns, res2.Columns) {
			t.Fatalf("fact columns not stable:\n%v\nvs\n%v", res.Columns, res2.Columns)
		}
	})
}

// FuzzParseQuery checks the query parser likewise.
func FuzzParseQuery(f *testing.F) {
	for _, s := range []string{"sg(john, Y)", "p(X, X)?", "cnx(hel, 900, D, AT).", "p", "p()"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st := symtab.NewTable()
		q, err := ParseQuery(src, st)
		if err != nil {
			return
		}
		if _, err := ParseQuery(q.Render(st), st); err != nil {
			t.Fatalf("accepted query failed to reparse: %q -> %q: %v", src, q.Render(st), err)
		}
	})
}
