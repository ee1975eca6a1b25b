package parser

import (
	"encoding/json"
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

// parseGeneral is Parse with parseRule alone: the oracle the ground-fact
// fast path must agree with.
func parseGeneral(src string, st *symtab.Table) (*Result, error) {
	r, err := parse(src, st, false)
	if err == nil {
		r.Intern(st)
	}
	return r, err
}

// sameParse parses src both ways, each over a fresh table, and fails on
// any difference: the error text, the fact columns (predicate, arity,
// Sym numbers, order), the rules, or the symbols interned. ParseDeferred must intern
// nothing, then agree once its Result is interned, over a fresh table
// and over one that holds every name already.
func sameParse(t *testing.T, src string) {
	t.Helper()
	fastSt, slowSt := symtab.NewTable(), symtab.NewTable()
	fast, fastErr := Parse(src, fastSt)
	slow, slowErr := parseGeneral(src, slowSt)
	if fmt.Sprint(fastErr) != fmt.Sprint(slowErr) {
		t.Fatalf("%q: fast path error %v, general %v", src, fastErr, slowErr)
	}
	if fastSt.Len() != slowSt.Len() {
		t.Fatalf("%q: fast path interned %d symbols, general %d", src, fastSt.Len(), slowSt.Len())
	}
	for s := symtab.Sym(1); int(s) < fastSt.Len(); s++ {
		if a, b := fastSt.Name(s), slowSt.Name(s); a != b {
			t.Fatalf("%q: Sym %d is %q on the fast path, %q on the general", src, s, a, b)
		}
	}
	if fastErr != nil {
		if fastSt.Len() != 1 {
			t.Fatalf("%q: a text that does not parse interned %d names", src, fastSt.Len()-1)
		}
		return
	}
	if !reflect.DeepEqual(fast.Columns, slow.Columns) {
		t.Fatalf("%q: facts differ\nfast:    %v\ngeneral: %v", src, fast.Columns, slow.Columns)
	}
	if !reflect.DeepEqual(fast.Program, slow.Program) {
		t.Fatalf("%q: rules differ\nfast:    %s\ngeneral: %s", src, fast.Program.Render(fastSt), slow.Program.Render(slowSt))
	}
	for _, st := range []*symtab.Table{symtab.NewTable(), fastSt} {
		n := st.Len()
		def, err := ParseDeferred(src, st)
		if err != nil || st.Len() != n {
			t.Fatalf("%q: deferred parse: %v, the table grew from %d to %d", src, err, n, st.Len())
		}
		def.Intern(st)
		if st.Len() != fastSt.Len() || !reflect.DeepEqual(def.Columns, fast.Columns) || !reflect.DeepEqual(def.Program, fast.Program) {
			t.Fatalf("%q: deferred parse, once interned, differs from Parse", src)
		}
	}
}

// factSeeds are the inputs at the fast path's edges: what it must take,
// what it must hand back, and what neither path accepts.
var factSeeds = []string{
	"e(a,b).\ne('New York','').\ne('é',-5).\ne('a b',x_1-Y).\n",
	"e(a,b).\r\ne(b,c).\r\n",
	"e(a,b). % between\ne(b,c). // between\ne(c, % inside\n d).\ne(d, // inside\n e).",
	"p(a,\n b).\np(c,\n\n d).",
	"p(a,\r\n b).\np(c).",
	"n(-5). n(5). n(-0).",
	"n(007x).",
	"p(a,).",
	"flag.",
	"q().",
	"flag. flag(a).",
	"e(a, b). e(c).",
	"p(a). p(X) :- q(X).",
	"sg(X, Y) :- flat(X, Y). flat(a, b). up(a, c).",
	"e(a,b)",
	"e('a, b).",
	"e('a\nb').",
	"likes(café, b).",
	"é(a).",
	"e(a, b). ©",
	"e(a, b)é.",
	"p(a)(b).",
	"p (a , b) .",
	"p(f(a)).",
	"p(X).",
	"p(a, _).",
	"p(a, _x).",
	"_p(a).",
	"P(a).",
	"p(a) :- q(a).",
	"a < b.",
	"p(a) p(b).",
	"p(a).q(b).5",
	"e(a,b).\ne(b,'c\xffd').\ne(c,\xff).",
}

// TestFastPathMatchesGeneral holds the fast path to the general parser on
// the seeds, on every checked-in program and on a dump-shaped fact file.
func TestFastPathMatchesGeneral(t *testing.T) {
	for _, src := range factSeeds {
		sameParse(t, src)
	}
	for name, src := range corpusPrograms(t) {
		t.Run(name, func(t *testing.T) { sameParse(t, src) })
	}
	st := symtab.NewTable()
	var facts []Fact
	for i := range 2000 {
		facts = append(facts, Fact{Pred: "e", Args: []symtab.Sym{
			st.Intern(fmt.Sprintf("p%d", i)),
			st.Intern([]string{"Upper", "-7", "007x", "", "a b", "é", fmt.Sprint(i)}[i%7]),
		}})
	}
	sameParse(t, FormatFacts(slices.All(facts), st))
}

// TestScanFactTakesWhatFormatFactsWrites checks the fast path takes every
// line FormatFacts writes, and hands back the statements it must.
func TestScanFactTakesWhatFormatFactsWrites(t *testing.T) {
	st := symtab.NewTable()
	var facts []Fact
	for _, name := range []string{"a", "Upper", "_x", "-7", "12", "007x", "", "a b", "é", "x-y_Z9", "%", "a // b"} {
		facts = append(facts, Fact{Pred: "e", Args: []symtab.Sym{st.Intern(name), st.Intern("b")}})
	}
	facts = append(facts, Fact{Pred: "flag"})
	for _, line := range strings.SplitAfter(FormatFacts(slices.All(facts), st), "\n") {
		if line == "" {
			continue
		}
		if _, _, ok := newLexer(line).scanFact(); !ok {
			t.Errorf("fast path refused %q", line)
		}
	}
	for _, src := range []string{"p(X).", "p(a) :- q(a).", "p(a, % c\n b).", "p(café).", "p(a)", "p(a,).", "p(f(a)).", "P(a)."} {
		if _, _, ok := newLexer(src).scanFact(); ok {
			t.Errorf("fast path took %q", src)
		}
	}
}

// corpusPrograms gathers every program text in the repository: .dl files,
// the planchoice cases' programs, the workload programs and each string
// literal of the example commands.
func corpusPrograms(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{"workload.SGProgram": workload.SGProgram, "workload.FlightProgram": workload.FlightProgram}
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "bench" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(path, ".dl"):
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			out[rel] = string(b)
		case strings.HasPrefix(rel, filepath.Join("testdata", "planchoice")) && strings.HasSuffix(path, ".json"):
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			var c struct{ Program string }
			if err := json.Unmarshal(b, &c); err != nil {
				return fmt.Errorf("%s: %v", rel, err)
			}
			out[rel] = c.Program
		case strings.HasPrefix(rel, "examples") && strings.HasSuffix(path, ".go"):
			f, err := goparser.ParseFile(gotoken.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == gotoken.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, ").") {
						out[fmt.Sprintf("%s@%d", rel, lit.Pos())] = s
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzParseFacts holds the fast path to the general parser on arbitrary
// text: same error text, same facts, rules and symbols.
func FuzzParseFacts(f *testing.F) {
	for _, s := range factSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sameParse(t, src)
	})
}

// BenchmarkParseFacts parses 100,000 two-column facts over 50,000 names,
// as a fact dump writes them: into a fresh table, and over a base holding
// every name, as a program's facts load over a snapshot.
func BenchmarkParseFacts(b *testing.B) {
	const people, facts = 50_000, 100_000
	var blob []byte
	offs := []uint32{0}
	for i := range people {
		blob = fmt.Appendf(blob, "p%d", i)
		offs = append(offs, uint32(len(blob)))
	}
	var src strings.Builder
	for i := range facts {
		fmt.Fprintf(&src, "e(p%d, p%d).\n", i%people, (i*7919+13)%people)
	}
	text := src.String()
	b.Run("fresh", func(b *testing.B) {
		b.SetBytes(int64(len(text)))
		for b.Loop() {
			if _, err := Parse(text, symtab.NewTable()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("base", func(b *testing.B) {
		st, err := symtab.NewTableFromBase(blob, offs)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(text)))
		for b.Loop() {
			if _, err := Parse(text, st); err != nil {
				b.Fatal(err)
			}
		}
		if st.Len() != people+1 {
			b.Fatalf("Parse interned %d names beyond the base", st.Len()-people-1)
		}
	})
}
