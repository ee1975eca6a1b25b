package chainlog

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"chainlog/internal/bottomup"
)

// generalJoinProgram is the shape of bench's general-join workload,
// unshuffled: same generation over a family of 150 in which person i's
// parent is person (i-1)/3 and everyone from the fifth on is flat with
// themselves, and — withTCN — beside it the nonlinear transitive closure
// over a chain of 48, a rule set sg does not depend on.
func generalJoinProgram(withTCN bool) string {
	var b strings.Builder
	if withTCN {
		b.WriteString("tcn(X, Y) :- e(X, Y).\ntcn(X, Y) :- tcn(X, Z), tcn(Z, Y).\n")
		for i := 0; i+1 < 48; i++ {
			fmt.Fprintf(&b, "e(n%d, n%d).\n", i, i+1)
		}
	}
	b.WriteString("sg(X, Y) :- flat(X, Y).\nsg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).\n")
	for i := 1; i < 150; i++ {
		fmt.Fprintf(&b, "up(p%d, p%d).\ndown(p%d, p%d).\n", i, (i-1)/3, (i-1)/3, i)
	}
	for i := 4; i < 150; i++ {
		fmt.Fprintf(&b, "flat(p%d, p%d).\n", i, i)
	}
	return b.String()
}

func generalJoinDB(tb testing.TB, withTCN bool) *DB {
	tb.Helper()
	db := NewDB()
	if err := db.LoadProgram(generalJoinProgram(withTCN)); err != nil {
		tb.Fatal(err)
	}
	return db
}

// mustPrepare prepares query pinned to strategy s.
func mustPrepare(tb testing.TB, db *DB, query string, s Strategy) *Prepared {
	tb.Helper()
	p, err := db.Prepare(query, Options{Strategy: s})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestFixpointRunsTheSlice: a pinned bottom-up fixpoint evaluates the
// rules the query depends on and nothing else. With tcn in the database
// an sg(?, Y) does exactly the work — firings, derived facts, rounds — it
// does in a database holding sg alone, and answers the same rows.
func TestFixpointRunsTheSlice(t *testing.T) {
	alone, beside := generalJoinDB(t, false), generalJoinDB(t, true)
	want, err := mustPrepare(t, alone, "sg(?, Y)", Seminaive).Run("p100")
	if err != nil {
		t.Fatal(err)
	}
	got, err := mustPrepare(t, beside, "sg(?, Y)", Seminaive).Run("p100")
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Firings != want.Stats.Firings || got.Stats.Nodes != want.Stats.Nodes || got.Stats.Iterations != want.Stats.Iterations {
		t.Errorf("beside tcn: firings/nodes/iterations %d/%d/%d, alone %d/%d/%d",
			got.Stats.Firings, got.Stats.Nodes, got.Stats.Iterations,
			want.Stats.Firings, want.Stats.Nodes, want.Stats.Iterations)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) || len(got.Rows) != 9 {
		t.Errorf("beside tcn: rows %v, alone %v", got.Rows, want.Rows)
	}
	if out, err := beside.ExplainOpts("sg(p100, Y)", Options{Strategy: Seminaive}); err != nil || !strings.Contains(out, "slice sg depends on (2 of 4 rules)") {
		t.Errorf("Explain does not say which rules run (err %v):\n%s", err, out)
	}
	if want.Stats.Firings != 1689 || want.Stats.Nodes != 1552 || want.Stats.Iterations != 5 {
		t.Errorf("seminaive sg alone: firings/nodes/iterations %d/%d/%d, want 1689/1552/5",
			want.Stats.Firings, want.Stats.Nodes, want.Stats.Iterations)
	}
}

// TestBottomUpWorkCounters pins the work of the two bottom-up routes
// beside the seminaive sg slice of TestFixpointRunsTheSlice: the
// whole-program fixpoint over general-join, whose nonlinear tcn rule
// reads two derived literals, and the QSQ net of tcn(?, Y), which
// spawns subqueries. How the join reads its candidates must not change
// what it does, so a change there that does shows here first.
func TestBottomUpWorkCounters(t *testing.T) {
	db := generalJoinDB(t, true)
	_, got, err := bottomup.SeminaiveCtx(context.Background(), db.Program(), db.Store())
	if err != nil {
		t.Fatal(err)
	}
	if want := (bottomup.Stats{Rounds: 6, Subqueries: 2, Firings: 28932, Derived: 2680, Lookups: 537, Retrieved: 2332}); got != want {
		t.Errorf("whole-program fixpoint: %+v, want %+v", got, want)
	}
	ans, err := mustPrepare(t, db, "tcn(?, Y)", QSQNet).Run("n20")
	if err != nil {
		t.Fatal(err)
	}
	st := ans.Stats
	if st.Iterations != 5 || st.Nodes != 378 || st.Firings != 4634 || st.Lookups != 28 || st.FactsConsulted != 27 {
		t.Errorf("QSQ net tcn(n20, Y): iterations/nodes/firings/lookups/facts %d/%d/%d/%d/%d, want 5/378/4634/28/27",
			st.Iterations, st.Nodes, st.Firings, st.Lookups, st.FactsConsulted)
	}
}

// TestBottomUpAllocs bounds what a warm run of the two bottom-up routes
// of general-join allocates: nothing per insert or per probe. With a
// string key per insert and per probe the same runs allocated 7,607 and
// 19,264 objects. Both routes run one evaluator on pooled scratch — its
// input and derived tables emptied and kept between runs — and read
// their answer through the index, so a warm run allocates the answer and
// the run's bookkeeping only (7 objects each), hence a bound of 32.
func TestBottomUpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	db := generalJoinDB(t, true)
	for _, c := range []struct {
		query, arg string
		s          Strategy
		max        float64
	}{
		{"tcn(?, Y)", "n20", QSQNet, 32},
		{"sg(?, Y)", "p100", Seminaive, 32},
	} {
		p := mustPrepare(t, db, c.query, c.s)
		run := func() {
			if _, err := p.Run(c.arg); err != nil {
				t.Error(err)
			}
		}
		run() // build the base relations' indexes
		if got := testing.AllocsPerRun(10, run); got > c.max {
			t.Errorf("warm %v %s allocates %.0f objects, want at most %.0f", c.s, c.query, got, c.max)
		}
	}
}

// TestBottomUpAllocsOverSnapshot is TestBottomUpAllocs over the same
// facts opened as a binary snapshot, whose relations stay in their mapped
// CSR layout: a probe of one hands out its tuples in the join's scratch,
// so the warm runs allocate no more than over heap tables.
func TestBottomUpAllocsOverSnapshot(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	src := generalJoinDB(t, true)
	path := filepath.Join(t.TempDir(), "general-join.snap")
	var rules strings.Builder
	if err := src.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if err := src.DumpRules(&rules); err != nil {
		t.Fatal(err)
	}
	db, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadProgram(rules.String()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		query, arg string
		s          Strategy
	}{
		{"tcn(?, Y)", "n20", QSQNet},
		{"sg(?, Y)", "p100", Seminaive},
	} {
		p := mustPrepare(t, db, c.query, c.s)
		run := func() {
			if _, err := p.Run(c.arg); err != nil {
				t.Error(err)
			}
		}
		run()
		if got := testing.AllocsPerRun(10, run); got > 32 {
			t.Errorf("warm %v %s over a snapshot allocates %.0f objects, want at most 32", c.s, c.query, got)
		}
	}
	for _, pred := range []string{"e", "up", "down", "flat"} {
		if !db.store.Relation(pred).Frozen() {
			t.Errorf("%s was thawed: the runs did not probe the snapshot's layout", pred)
		}
	}
}

// TestConcurrentRunsCountTheirOwnWork runs two evaluations each of six
// prepared queries at once, one per plan type: tcn(?, Y) left to the
// optimizer (the chain traversal of tcn = e.e*) and pinned to the QSQ
// net, sg(?, Y) pinned to seminaive and left to the optimizer (the chain
// traversal of a nonregular equation), sg(?, ?) (the
// Section 4 transformation, whose virtual relations join the base store)
// and a base-relation lookup. A run's tables, frames and windows are its
// own and the compiled plans are only read; and every run tallies its own
// probes — alone, the (facts, lookups) pinned below, recorded when the
// store still kept counters of its own and agreed with every one (sg's
// chain run did 38 in 37 until its cyclic guard stopped probing acyclic
// data) — so a
// cheap query's FactsConsulted does not pick up an expensive neighbour's
// and the optimizer is never told its estimate was wrong.
func TestConcurrentRunsCountTheirOwnWork(t *testing.T) {
	db := generalJoinDB(t, true)
	prepare := func(query string) *Prepared {
		p, err := db.Prepare(query, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	tcn := prepare("tcn(?, Y)")
	cases := []struct {
		p    *Prepared
		args []string
		work [2]int64 // facts, lookups
		want *Answer
	}{
		{p: tcn, args: []string{"n20"}, work: [2]int64{27, 28}},
		{p: mustPrepare(t, db, "tcn(?, Y)", QSQNet), args: []string{"n20"}, work: [2]int64{27, 28}},
		{p: mustPrepare(t, db, "sg(?, Y)", Seminaive), args: []string{"p100"}, work: [2]int64{2285, 536}},
		{p: prepare("sg(?, Y)"), args: []string{"p100"}, work: [2]int64{19, 14}},
		{p: prepare("sg(?, ?)"), args: []string{"p100", "p101"}, work: [2]int64{10, 14}},
		{p: prepare("up(?, Y)"), args: []string{"p100"}, work: [2]int64{1, 1}},
	}
	for i := range cases {
		c := &cases[i]
		ans, err := c.p.Run(c.args...)
		if err != nil {
			t.Fatal(err)
		}
		if st := ans.Stats; st.FactsConsulted != c.work[0] || st.Lookups != c.work[1] {
			t.Errorf("%s alone as %v: %d facts in %d lookups, want %d in %d", c.p, st.Strategy,
				st.FactsConsulted, st.Lookups, c.work[0], c.work[1])
		}
		c.want = ans
	}
	var wg sync.WaitGroup
	for _, c := range cases {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					ans, err := c.p.Run(c.args...)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(ans.Rows, c.want.Rows) || ans.True != c.want.True || ans.Stats != c.want.Stats {
						t.Errorf("%s beside the others: %d rows, %+v; alone %d rows, %+v", c.p, len(ans.Rows), ans.Stats, len(c.want.Rows), c.want.Stats)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	if pc := tcn.Plan(); pc.Strategy != Chain || pc.Reoptimizations != 0 {
		t.Errorf("tcn(?, Y) ended on %v after %d re-optimizations, want chain after none", pc.Strategy, pc.Reoptimizations)
	}
}

// pollCancel is a context cancelled from its k-th poll on: a cancel that
// lands at a chosen poll of a run, the join's included.
type pollCancel struct {
	context.Context
	polls, k int
}

func (c *pollCancel) Done() <-chan struct{} {
	if c.polls++; c.polls >= c.k {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	return nil
}

func (c *pollCancel) Err() error {
	if c.polls >= c.k {
		return context.Canceled
	}
	return nil
}

// TestCancelledFixpointLeavesCleanScratch cancels a pinned seminaive
// tcn(?, Y) at each poll it makes in turn — its 28k firings take the join
// past several poll strides, so some cancels land inside the join and
// some between rounds — and then a pinned QSQ net's tcn(?, Y) the same
// way, and after each cancel runs both and a pinned seminaive sg(?, Y)
// again: the run returns the context's error, and the next runs answer
// as cold runs do, rows and Stats alike. A cancelled run's input and
// derived tables and join error do not carry over to the pooled
// scratch's next run.
func TestCancelledFixpointLeavesCleanScratch(t *testing.T) {
	runs := []struct {
		query, arg string
		s          Strategy
		p          *Prepared
		cold       *Answer
	}{
		{query: "tcn(?, Y)", arg: "n20", s: Seminaive},
		{query: "tcn(?, Y)", arg: "n20", s: QSQNet},
		{query: "sg(?, Y)", arg: "p100", s: Seminaive},
	}
	db := generalJoinDB(t, true)
	for i := range runs {
		r := &runs[i]
		var err error
		if r.cold, err = mustPrepare(t, generalJoinDB(t, true), r.query, r.s).Run(r.arg); err != nil {
			t.Fatal(err)
		}
		r.p = mustPrepare(t, db, r.query, r.s)
	}
	if f := runs[0].cold.Stats.Firings; f < 4*4096 {
		t.Fatalf("tcn fires %d times: too few for the join to poll", f)
	}
	for _, c := range runs[:2] {
		count := &pollCancel{Context: context.Background(), k: math.MaxInt}
		if _, err := c.p.RunCtx(count, c.arg); err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= count.polls; k++ {
			if _, err := c.p.RunCtx(&pollCancel{Context: context.Background(), k: k}, c.arg); !errors.Is(err, context.Canceled) {
				t.Fatalf("%v cancelled at poll %d of %d: err %v, want %v", c.s, k, count.polls, err, context.Canceled)
			}
			for _, r := range runs {
				got, err := r.p.Run(r.arg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Rows, r.cold.Rows) || got.Stats != r.cold.Stats {
					t.Fatalf("after a %v cancel at poll %d, %s as %v: %d rows, %+v; cold: %d rows, %+v",
						c.s, k, r.p, r.s, len(got.Rows), got.Stats, len(r.cold.Rows), r.cold.Stats)
				}
			}
		}
	}
}

// TestFixpointRunsBesideWrites runs a pinned seminaive sg(?, Y) from 8
// goroutines while a writer asserts and retracts up facts between the
// runs. A run holds the read lock throughout, so it sees one store: the
// one of a fact epoch between those read before and after it, and its
// answer must be naiveeval's on that store. Pooled scratch passes from
// run to run and goroutine to goroutine under the race detector.
func TestFixpointRunsBesideWrites(t *testing.T) {
	db := generalJoinDB(t, false)
	p := mustPrepare(t, db, "sg(?, Y)", Seminaive)
	// The writer toggles p100's extra parents, one a step.
	parents := []string{"p5", "p12", "p20", "p41"}
	const steps = 24
	has := map[string]bool{}
	deltas := make([]*Delta, steps)
	_, first := db.Epochs()
	want := map[uint64][][]string{}
	for i := 0; i <= steps; i++ {
		var extra strings.Builder
		for _, q := range parents {
			if has[q] {
				fmt.Fprintf(&extra, "up(p100, %s).\n", q)
			}
		}
		want[first+uint64(i)] = naiveOracle(t, db, generalJoinProgram(false)+extra.String(), "sg(p100, Y)")
		if i == steps {
			break
		}
		q := parents[i%len(parents)]
		if deltas[i] = (&Delta{}).Assert("up", "p100", q); has[q] {
			deltas[i] = (&Delta{}).Retract("up", "p100", q)
		}
		has[q] = !has[q]
	}
	fact := func() uint64 {
		_, f := db.Epochs()
		return f
	}
	const goroutines, runsEach = 8, 20
	var wg sync.WaitGroup
	var runs atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runsEach; i++ {
				lo := fact()
				ans, err := p.Run("p100")
				hi := fact()
				runs.Add(1)
				if err != nil {
					t.Error(err)
					continue
				}
				seen := false
				for e := lo; e <= hi && !seen; e++ {
					seen = reflect.DeepEqual(ans.Rows, want[e])
				}
				if !seen {
					t.Errorf("a run between fact epochs %d and %d answered %v, which no store between them gives", lo, hi, ans.Rows)
				}
			}
		}()
	}
	// Each write waits for runs to have happened since the one before.
	for i, d := range deltas {
		for runs.Load() < int64(i+1)*goroutines*runsEach/(steps+1) {
			runtime.Gosched()
		}
		if _, err := db.Apply(d); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
	if got := fact(); got != first+steps {
		t.Fatalf("fact epoch %d after %d writes from %d", got, steps, first)
	}
}
