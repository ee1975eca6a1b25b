package parser

import (
	"reflect"
	"strings"
	"testing"

	"chainlog/internal/ast"
	"chainlog/internal/symtab"
)

func TestParseRulesAndFacts(t *testing.T) {
	st := symtab.NewTable()
	res, err := Parse(`
% same generation
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
flat(a, b).   // a fact
up(a, c).
`, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program.Rules) != 2 {
		t.Fatalf("rules = %d", len(res.Program.Rules))
	}
	if len(res.Columns) != 2 || res.Columns[0].Count != 1 || res.Columns[1].Count != 1 {
		t.Fatalf("columns = %+v", res.Columns)
	}
	if c := res.Columns[0]; c.Pred != "flat" || c.Arity != 2 || st.Name(c.Fact(0)[1]) != "b" {
		t.Fatalf("column 0 = %+v", c)
	}
	r := res.Program.Rules[1]
	if r.Head.Pred != "sg" || len(r.Body) != 3 {
		t.Fatalf("rule 1 = %s", r.Render(st))
	}
	if !r.Body[0].Args[0].IsVar() || r.Body[0].Args[0].Var != "X" {
		t.Fatal("variable parsing broken")
	}
}

func TestParseBuiltins(t *testing.T) {
	st := symtab.NewTable()
	res, err := Parse(`
cnx(S, DT, D, AT) :- flight(S, DT, D1, AT1), AT1 < DT1, is_deptime(DT1), cnx(D1, DT1, D, AT).
`, st)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Program.Rules[0]
	if len(r.Body) != 4 {
		t.Fatalf("body len = %d", len(r.Body))
	}
	lt := r.Body[1]
	if !lt.IsBuiltin() || lt.Op != ast.OpLT {
		t.Fatalf("expected < builtin, got %s", lt.Render(st))
	}
	for _, src := range []string{
		"p(X) :- q(X, Y), X <= Y.",
		"p(X) :- q(X, Y), X >= Y.",
		"p(X) :- q(X, Y), X != Y.",
		"p(X) :- q(X, Y), X = Y.",
		"p(X) :- q(X, Y), X > Y.",
	} {
		if _, err := Parse(src, st); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

func TestParseNumbersAndQuoted(t *testing.T) {
	st := symtab.NewTable()
	res, err := Parse(`flight(hel, 900, 'New York', 1300).`, st)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Columns[0].Fact(0)
	if st.Name(f[1]) != "900" || st.Name(f[2]) != "New York" {
		t.Fatalf("args = %v %v", st.Name(f[1]), st.Name(f[2]))
	}
}

func TestParseIdentityRuleKept(t *testing.T) {
	st := symtab.NewTable()
	res, err := Parse(`p(X, X).`, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program.Rules) != 1 || len(res.Columns) != 0 {
		t.Fatalf("identity rule not kept as rule: rules=%d fact columns=%d", len(res.Program.Rules), len(res.Columns))
	}
}

func TestParseErrors(t *testing.T) {
	st := symtab.NewTable()
	bad := []string{
		"p(X, Y :- q(X, Y).",
		"p(X,Y) :- q(X,Y)",        // missing dot
		"p(X,Y) :- q(X,Y), .",     // dangling comma
		"p(X,Y) :- 'unterminated", // bad string
		"X < .",                   // builtin without operand
		"p(a). p(a, b).",          // two arities for one fact predicate
	}
	for _, src := range bad {
		if _, err := Parse(src, st); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
	// A text that does not parse interns nothing, not even the constants
	// before its error.
	if st.Len() != 1 {
		t.Fatalf("refused texts interned %d names", st.Len()-1)
	}
}

// TestFactArityConflictRejected: facts of one predicate share one arity,
// and the error names the line of the first that breaks it.
func TestFactArityConflictRejected(t *testing.T) {
	for src, want := range map[string]string{
		"p(a).\np(b).\n\np(a, b).":                   "line 4: fact p has 2 argument(s), an earlier fact of p has 1",
		"p(a). q(b, c).\np.":                         "line 2: fact p has 0 argument(s), an earlier fact of p has 1",
		"p(a, b).\n% c\nq(X) :- p(X, Y).\np('x y').": "line 4: fact p has 1 argument(s), an earlier fact of p has 2",
	} {
		_, err := Parse(src, symtab.NewTable())
		if err == nil || err.Error() != want {
			t.Errorf("Parse(%q) = %v, want %q", src, err, want)
		}
	}
}

// TestUTF8Identifiers: identifiers are UTF-8 letters, a constant with a
// non-ASCII name is quoted on output and reads back as the same symbol.
func TestUTF8Identifiers(t *testing.T) {
	st := symtab.NewTable()
	res, err := Parse("likes(café, 'naïve').\nsg(Ölçü, Y) :- likes(Ölçü, Y).", st)
	if err != nil {
		t.Fatal(err)
	}
	cafe := res.Columns[0].Fact(0)[0]
	if st.Name(cafe) != "café" || !res.Program.Rules[0].Head.Args[0].IsVar() {
		t.Fatalf("facts %v, rule %s", res.Columns, res.Program.Rules[0].Render(st))
	}
	text := FormatFacts(res.Facts, st)
	if text != "likes('café','naïve').\n" {
		t.Fatalf("FormatFacts = %q", text)
	}
	again, err := Parse(text, st)
	if err != nil || again.Columns[0].Fact(0)[0] != cafe {
		t.Fatalf("reparse of %q: %v, %v", text, again, err)
	}
	for src, want := range map[string]string{
		"p(a). ©":      `line 1: unexpected character "©"`,
		"p(a, b\xff).": `line 1: unexpected character "\xff"`,
	} {
		if _, err := Parse(src, st); err == nil || err.Error() != want {
			t.Errorf("Parse(%q) = %v, want %q", src, err, want)
		}
	}
}

func TestFactRuleOverlapRejected(t *testing.T) {
	st := symtab.NewTable()
	_, err := Parse(`
p(a, b).
p(X, Y) :- q(X, Y).
`, st)
	if err == nil || !strings.Contains(err.Error(), "both") {
		t.Fatalf("expected base/derived disjointness error, got %v", err)
	}
}

func TestParseQuery(t *testing.T) {
	st := symtab.NewTable()
	q, err := ParseQuery("sg(john, Y)?", st)
	if err != nil {
		t.Fatal(err)
	}
	if q.Pred != "sg" || q.Adornment() != "bf" {
		t.Fatalf("query = %s adorn %s", q.Render(st), q.Adornment())
	}
	q, err = ParseQuery("p(X, X)", st)
	if err != nil {
		t.Fatal(err)
	}
	if q.Adornment() != "ff" {
		t.Fatalf("adorn = %s", q.Adornment())
	}
	if _, err := ParseQuery("X < Y", st); err == nil {
		t.Fatal("builtin query accepted")
	}
	if _, err := ParseQuery("p(a) junk", st); err == nil {
		t.Fatal("trailing junk accepted")
	}
	if _, ok := st.Lookup("a"); ok {
		t.Fatal("a refused query interned its constant")
	}
	q, err = ParseQueryTemplate("p(b, ?, c, b, john)", st)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Render(st); got != "p(b,?,c,b,john)" {
		t.Fatalf("template renders as %s", got)
	}
}

// ParseQueryNames is ParseQueryTemplate's shape with the constants'
// names beside it, and it needs no symbol table.
func TestParseQueryNames(t *testing.T) {
	q, names, err := ParseQueryNames("cnx(hel, 900, D, 'a b')?")
	if err != nil {
		t.Fatal(err)
	}
	st := symtab.NewTable()
	empty := st.Len()
	tmpl, err := ParseQueryTemplate("cnx(?, ?, D, ?)", st)
	if err != nil {
		t.Fatal(err)
	}
	if q.Render(st) != tmpl.Render(st) || !reflect.DeepEqual(names, []string{"hel", "900", "a b"}) || st.Len() != empty {
		t.Fatalf("query %s, names %q, %d symbols interned", q.Render(st), names, st.Len()-empty)
	}
	for _, bad := range []string{"sg(?, Y)", "a < b", "sg(a, Y) junk"} {
		if _, _, err := ParseQueryNames(bad); err == nil {
			t.Errorf("ParseQueryNames(%q) accepted", bad)
		}
	}
}

func TestFormatFactsRoundTrip(t *testing.T) {
	st := symtab.NewTable()
	res, err := Parse("edge(a, b).\nedge(b, c).\n", st)
	if err != nil {
		t.Fatal(err)
	}
	text := FormatFacts(res.Facts, st)
	res2, err := Parse(text, st)
	if err != nil {
		t.Fatalf("reparsing %q: %v", text, err)
	}
	if !reflect.DeepEqual(res2.Columns, res.Columns) {
		t.Fatal("fact round trip lost facts")
	}
}

func TestProgramRenderRoundTrip(t *testing.T) {
	st := symtab.NewTable()
	src := `sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).`
	res := MustParse(src, st)
	rendered := res.Program.Render(st)
	res2, err := Parse(rendered, st)
	if err != nil {
		t.Fatalf("reparsing rendered program: %v\n%s", err, rendered)
	}
	if res2.Program.Render(st) != rendered {
		t.Fatal("render not stable")
	}
}

func TestZeroArityPredicate(t *testing.T) {
	st := symtab.NewTable()
	res, err := Parse(`ok :- edge(a, b).`, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.Rules[0].Head.Arity() != 0 {
		t.Fatal("zero-arity head broken")
	}
}
