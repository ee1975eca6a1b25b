package chaineval

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"chainlog/internal/edb"
	"chainlog/internal/equations"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

// TestCountingTracerMatchesResult holds a tracer's counts to the run's
// Result, on Fig. 7(c) and on Fig. 8's cycles (3, 4), a run that
// computes the cyclic bound: the bound's own traversals report nothing.
func TestCountingTracerMatchesResult(t *testing.T) {
	st := symtab.NewTable()
	for _, w := range []*workload.SG{workload.SampleC(st, 10), workload.Cyclic(st, 3, 4)} {
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
}

// eventLog records a run's events, one line each.
type eventLog []string

func (l *eventLog) Iteration(i int)          { *l = append(*l, fmt.Sprintf("iteration %d", i)) }
func (l *eventLog) Node(q int, u symtab.Sym) { *l = append(*l, fmt.Sprintf("node (q%d, %d)", q, u)) }
func (l *eventLog) Expand(pred string, q, first int) {
	*l = append(*l, fmt.Sprintf("expand %s at q%d -> copy's states from q%d", pred, q, first))
}
func (l *eventLog) Answer(u symtab.Sym) { *l = append(*l, fmt.Sprintf("answer %d", u)) }

// sameEvents fails t at the first event where got and want differ.
func sameEvents(t *testing.T, what string, got, want eventLog) {
	t.Helper()
	at := func(l eventLog, k int) string {
		if k < len(l) {
			return l[k]
		}
		return "(none)"
	}
	for k := range max(len(got), len(want)) {
		if at(got, k) != at(want, k) {
			t.Fatalf("%s: %d events, the sequential run's %d; event %d is %q, want %q", what, len(got), len(want), k+1, at(got, k), at(want, k))
		}
	}
}

// An iteration that leaves continuation points at two states expands
// them in state order, so the copies are numbered — and the events read
// — the same on every run. The program has two recursive rules, hence two
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
	trace := func() eventLog {
		var log eventLog
		eng := New(sys, StoreSource{Store: store}, Options{Tracer: &log})
		if _, err := eng.Query("p", n(0)); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first, expansions := trace(), 0
	for _, line := range first {
		if strings.HasPrefix(line, "expand p") {
			expansions++
		}
	}
	if expansions < 10 {
		t.Fatalf("the run expands %d times, too little to tell:\n%s", expansions, strings.Join(first, "\n"))
	}
	for i := 0; i < 8; i++ {
		again := trace()
		for k := range max(len(first), len(again)) {
			if k >= len(first) || k >= len(again) || first[k] != again[k] {
				t.Fatalf("events differ from run to run at event %d: %q, then %q", k+1, first[min(k, len(first)-1)], again[min(k, len(again)-1)])
			}
		}
	}
}

// A traced run never shards, whatever workers it is given: a sharded
// level's nodes are merged without events, and a fanned-out batch would
// call the tracer from several goroutines at once. Over a graph whose
// levels are twice parFrontierThreshold wide, QueryInto on four workers
// emits exactly the sequential run's events, and so does a batch of a
// non-regular equation (sg) on four workers, binding by binding.
func TestTracedRunNeverShards(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	st := symtab.NewTable()
	store := edb.NewStore(st)
	// Every root goes up to the same wide layer m, which is flat to f and
	// f down to y: sg(r, Y) expands once and visits each layer whole.
	const roots = 8
	width := 2 * parFrontierThreshold
	for i := range width {
		m, f, y := st.Intern(fmt.Sprintf("m%d", i)), st.Intern(fmt.Sprintf("f%d", i)), st.Intern(fmt.Sprintf("y%d", i))
		for r := range roots {
			store.Insert("up", st.Intern(fmt.Sprintf("r%d", r)), m)
		}
		store.Insert("flat", m, f)
		store.Insert("down", f, y)
	}
	rs := make([]symtab.Sym, roots)
	for r := range rs {
		rs[r] = st.Intern(fmt.Sprintf("r%d", r))
	}
	trace := func(workers int, batch bool) eventLog {
		var log eventLog
		eng := sgEngine(t, store, Options{Tracer: &log})
		var err error
		if batch {
			_, _, err = eng.QueryBatchCtx(nil, "sg", rs, 0, workers)
		} else {
			var answers []symtab.Sym
			if answers, _, err = eng.QueryInto(nil, "sg", rs[0], nil, 0, workers); err == nil && len(answers) != width {
				t.Fatalf("%d answers, want %d", len(answers), width)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		return log
	}
	sameEvents(t, "QueryInto on 4 workers", trace(4, false), trace(1, false))
	sameEvents(t, "QueryBatchCtx on 4 workers", trace(4, true), trace(1, true))
}
