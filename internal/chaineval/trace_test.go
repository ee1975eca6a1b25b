package chaineval

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"chainlog/internal/edb"
	"chainlog/internal/equations"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

func TestCountingTracerMatchesResult(t *testing.T) {
	st := symtab.NewTable()
	w := workload.SampleC(st, 10)
	var c CountingTracer
	eng := sgEngine(t, w.Store, Options{Tracer: &c})
	res, err := eng.Query("sg", w.Query)
	if err != nil {
		t.Fatal(err)
	}
	if c.Iterations != res.Iterations {
		t.Fatalf("tracer iterations %d != result %d", c.Iterations, res.Iterations)
	}
	if c.Nodes != res.Nodes {
		t.Fatalf("tracer nodes %d != result %d", c.Nodes, res.Nodes)
	}
	if c.Expansions != res.Expansions {
		t.Fatalf("tracer expansions %d != result %d", c.Expansions, res.Expansions)
	}
	if c.Answers != len(res.Answers) {
		t.Fatalf("tracer answers %d != result %d", c.Answers, len(res.Answers))
	}
}

func TestWriterTracerOutput(t *testing.T) {
	st := symtab.NewTable()
	w := workload.SampleA(st, 3)
	var buf bytes.Buffer
	tr := &WriterTracer{W: &buf, St: st}
	eng := sgEngine(t, w.Store, Options{Tracer: tr})
	if _, err := eng.Query("sg", w.Query); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"-- iteration 1", "-- iteration 2", "expand sg", "answer w1", "node (q0, a)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestWriterTracerTruncation(t *testing.T) {
	st := symtab.NewTable()
	w := workload.SampleA(st, 50)
	var buf bytes.Buffer
	tr := &WriterTracer{W: &buf, St: st, MaxNodes: 5}
	eng := sgEngine(t, w.Store, Options{Tracer: tr})
	if _, err := eng.Query("sg", w.Query); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "truncated") {
		t.Fatal("truncation marker missing")
	}
	if n := strings.Count(out, "   node "); n != 5 {
		t.Fatalf("node lines = %d, want 5", n)
	}
}

// An iteration that leaves continuation points at two states expands
// them in state order, so the copies are numbered — and the trace reads —
// the same on every run. The program has two recursive rules, hence two
// sg-like occurrences reached side by side (the oracle's mutual template
// will not do: Lemma 1 rewrites it into a regular equation that never
// expands).
func TestTraceDeterministic(t *testing.T) {
	st := symtab.NewTable()
	sys, err := equations.Transform(parser.MustParse(`
p(X, Y) :- e(X, Y).
p(X, Z) :- a(X, Y), p(Y, W), b(W, Z).
p(X, Z) :- c(X, Y), p(Y, W), d(W, Z).
`, st).Program)
	if err != nil {
		t.Fatal(err)
	}
	// Two ladders side by side, crossing over at every rung, so every
	// iteration holds continuation points at a copy of each occurrence.
	store := edb.NewStore(st)
	n := func(i int) symtab.Sym { return st.Intern(fmt.Sprintf("n%d", i)) }
	for i := 0; i < 6; i++ {
		store.Insert("a", n(i), n(i+1))
		store.Insert("c", n(i), n(i+1))
		store.Insert("b", n(i+1), n(i))
		store.Insert("d", n(i+1), n(i))
		store.Insert("e", n(i), n(i))
	}
	trace := func() string {
		var buf bytes.Buffer
		eng := New(sys, StoreSource{Store: store}, Options{Tracer: &WriterTracer{W: &buf, St: st}})
		if _, err := eng.Query("p", n(0)); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := trace()
	if strings.Count(first, "expand p") < 10 {
		t.Fatalf("trace expands too little to tell:\n%s", first)
	}
	for i := 0; i < 8; i++ {
		a, b := strings.Split(first, "\n"), strings.Split(trace(), "\n")
		for k := range a {
			if k >= len(b) || a[k] != b[k] {
				t.Fatalf("trace differs from run to run at line %d: %q, then %q", k+1, a[k], b[min(k, len(b)-1)])
			}
		}
	}
}
