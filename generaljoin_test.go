package chainlog

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
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
	for _, s := range []Strategy{Seminaive, Naive} {
		want, err := mustPrepare(t, alone, "sg(?, Y)", s).Run("p100")
		if err != nil {
			t.Fatal(err)
		}
		got, err := mustPrepare(t, beside, "sg(?, Y)", s).Run("p100")
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.Firings != want.Stats.Firings || got.Stats.Nodes != want.Stats.Nodes || got.Stats.Iterations != want.Stats.Iterations {
			t.Errorf("%v beside tcn: firings/nodes/iterations %d/%d/%d, alone %d/%d/%d", s,
				got.Stats.Firings, got.Stats.Nodes, got.Stats.Iterations,
				want.Stats.Firings, want.Stats.Nodes, want.Stats.Iterations)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) || len(got.Rows) != 9 {
			t.Errorf("%v beside tcn: rows %v, alone %v", s, got.Rows, want.Rows)
		}
		if out, err := beside.ExplainOpts("sg(p100, Y)", Options{Strategy: s}); err != nil || !strings.Contains(out, "slice sg depends on (2 of 4 rules)") {
			t.Errorf("%v: Explain does not say which rules run (err %v):\n%s", s, err, out)
		}
		if s == Seminaive && (want.Stats.Firings != 1689 || want.Stats.Nodes != 1552 || want.Stats.Iterations != 5) {
			t.Errorf("seminaive sg alone: firings/nodes/iterations %d/%d/%d, want 1689/1552/5",
				want.Stats.Firings, want.Stats.Nodes, want.Stats.Iterations)
		}
	}
}

// TestBottomUpAllocs bounds what a warm run of the two bottom-up routes
// of general-join allocates: tables, frames and the answer, nothing per
// insert or per probe. With a string key per insert and per probe the
// same runs allocated 7,607 and 19,264 objects.
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
		{"tcn(?, Y)", "n20", QSQNet, 400},
		{"sg(?, Y)", "p100", Seminaive, 400},
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

// TestConcurrentRunsCountTheirOwnWork runs two evaluations each of seven
// prepared queries at once, one per plan type and fixpoint flavour: tcn(?, Y)
// left to the optimizer (the chain traversal of tcn = e.e*) and pinned to
// the QSQ net, sg(?, Y) pinned to seminaive, to magic and left to the
// optimizer (the chain traversal of a nonregular equation), sg(?, ?) (the
// Section 4 transformation, whose virtual relations join the base store)
// and a base-relation lookup. A run's tables, frames and windows are its
// own and the compiled plans are only read; and every run tallies its own
// probes — alone, the (facts, lookups) pinned below, recorded when the
// store still kept counters of its own and agreed with every one — so a
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
		{p: mustPrepare(t, db, "sg(?, Y)", Magic), args: []string{"p100"}, work: [2]int64{40, 38}},
		{p: prepare("sg(?, Y)"), args: []string{"p100"}, work: [2]int64{38, 37}},
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
