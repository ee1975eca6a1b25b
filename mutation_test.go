package chainlog

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"chainlog/internal/automaton"
	"chainlog/internal/equations"
)

// mustApply is Apply for a Delta that must be accepted.
func mustApply(t testing.TB, db *DB, d *Delta) ApplyResult {
	t.Helper()
	res, err := db.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Fact-only mutations move only the fact epoch; rule loads, store
// replacement and Invalidate move the rule epoch.
func TestEpochSplit(t *testing.T) {
	db := mustDB(t, sgSrc)
	r0, f0 := db.Epochs()

	if ok, err := db.Assert("up", "zz1", "zz2"); !ok || err != nil {
		t.Fatal("Assert of a new fact returned false")
	}
	r1, f1 := db.Epochs()
	if r1 != r0 || f1 != f0+1 {
		t.Fatalf("Assert moved epochs (%d,%d) -> (%d,%d); want fact-only", r0, f0, r1, f1)
	}
	// Duplicate assert: no movement.
	if ok, _ := db.Assert("up", "zz1", "zz2"); ok {
		t.Fatal("duplicate Assert returned true")
	}
	if r, f := db.Epochs(); r != r1 || f != f1 {
		t.Fatal("duplicate Assert moved an epoch")
	}
	// Retract moves the fact epoch; retracting again does not.
	if ok, err := db.Retract("up", "zz1", "zz2"); !ok || err != nil {
		t.Fatal("Retract of a present fact returned false")
	}
	if _, f := db.Epochs(); f != f1+1 {
		t.Fatal("Retract did not move the fact epoch")
	}
	if ok, _ := db.Retract("up", "zz1", "zz2"); ok {
		t.Fatal("second Retract returned true")
	}
	if ok, _ := db.Retract("up", "never", "asserted"); ok {
		t.Fatal("Retract of a never-asserted fact returned true")
	}
	if ok, _ := db.Retract("nosuchpred", "a", "b"); ok {
		t.Fatal("Retract on an unknown predicate returned true")
	}
	// A wrong-arity tuple was never asserted: false no-op, no panic —
	// also inside a Delta, where a panic would abort the batch midway.
	if ok, _ := db.Retract("up", "zz3"); ok {
		t.Fatal("wrong-arity Retract returned true")
	}
	if res, err := db.Apply((&Delta{}).Retract("up", "zz3")); res != (ApplyResult{}) || err != nil {
		t.Fatalf("wrong-arity retract Apply = %+v, %v", res, err)
	}
	rBefore, fBefore := db.Epochs()
	// A wrong-arity assert is an error, and the Delta it is in changes
	// nothing: not the ops before it, nor a relation created inside it.
	for _, d := range []*Delta{
		(&Delta{}).Assert("up", "zz5", "zz6").Assert("up", "zz3"),
		(&Delta{}).Assert("fresh", "a", "b").Retract("up", "zz1", "zz2").Assert("fresh", "c"),
	} {
		res, err := db.Apply(d)
		if res != (ApplyResult{}) || !errors.Is(err, ErrArity) {
			t.Fatalf("wrong-arity assert Apply = %+v, %v; want ErrArity", res, err)
		}
		if !strings.Contains(err.Error(), "has arity 2") {
			t.Errorf("error %q does not name the arity", err)
		}
	}
	if r, f := db.Epochs(); r != rBefore || f != fBefore {
		t.Fatal("a refused Delta moved an epoch")
	}
	if db.Store().Relation("fresh") != nil || db.Store().Relation("up").Contains([]Sym{db.Intern("zz5"), db.Intern("zz6")}) {
		t.Fatal("a refused Delta applied part of itself")
	}
	// So is a fact whose arity disagrees with a stored relation, in a
	// load; or with an earlier fact of the load, at parse.
	for src, want := range map[string]string{
		"up(zz7, zz8). up(zz9).":    "line 1: fact up has 1 argument(s)",
		"other(a). other(a, b).":    "an earlier fact of other has 1",
		"up(zz7, zz8).\nflat(zz7).": "flat has arity 2",
	} {
		if err := db.LoadProgram(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("LoadProgram(%q) = %v, want an error containing %q", src, err, want)
		}
	}
	if r, f := db.Epochs(); r != rBefore || f != fBefore || db.Store().Relation("other") != nil {
		t.Fatal("a refused load changed the database")
	}

	// A facts-only load is a fact mutation.
	if err := db.LoadProgram("up(zz3, zz4)."); err != nil {
		t.Fatal(err)
	}
	if r, f := db.Epochs(); r != rBefore || f != fBefore+1 {
		t.Fatal("facts-only LoadProgram did not move only the fact epoch")
	}
	// A load with rules is a rule mutation.
	if err := db.LoadProgram("other(X, Y) :- up(X, Y)."); err != nil {
		t.Fatal(err)
	}
	if r, _ := db.Epochs(); r != rBefore+1 {
		t.Fatal("rule LoadProgram did not move the rule epoch")
	}
	db.Invalidate()
	if r, _ := db.Epochs(); r != rBefore+2 {
		t.Fatal("Invalidate did not move the rule epoch")
	}
}

// No public write panics on a fact of the wrong arity: each refuses it
// with ErrArity — a retract is a false no-op — and changes and interns
// nothing.
func TestWrongArityWritesInternNothing(t *testing.T) {
	db := mustDB(t, sgSrc)
	r0, f0 := db.Epochs()
	n0 := db.SymTab().Len()
	for name, write := range map[string]func() error{
		"Assert": func() error { _, err := db.Assert("up", "fresh1"); return err },
		"Apply": func() error {
			_, err := db.Apply((&Delta{}).Assert("up", "fresh2", "fresh3").Assert("up", "fresh4"))
			return err
		},
		"ApplyAt": func() error {
			_, _, err := db.ApplyAt((&Delta{}).Assert("up", "fresh5", "fresh6", "fresh7"), f0+1)
			return err
		},
		"LoadProgram": func() error { return db.LoadProgram("up(fresh9).") },
	} {
		if err := write(); !errors.Is(err, ErrArity) {
			t.Errorf("%s of a wrong-arity fact = %v, want ErrArity", name, err)
		}
	}
	if ok, err := db.Retract("up", "fresh8"); ok || err != nil {
		t.Errorf("wrong-arity Retract = %v, %v; want a false no-op", ok, err)
	}
	if n := db.SymTab().Len(); n != n0 {
		t.Errorf("refused writes grew the symbol table %d -> %d", n0, n)
	}
	if r, f := db.Epochs(); r != r0 || f != f0 {
		t.Errorf("refused writes moved the epochs (%d,%d) -> (%d,%d)", r0, f0, r, f)
	}
}

// A load refused for its syntax, after facts naming fresh constants, or
// for a fact of a derived predicate, and a fact restore refused for a
// rule, intern nothing and move nothing.
func TestFailedLoadInternsNothing(t *testing.T) {
	db := mustDB(t, sgSrc)
	r0, f0 := db.Epochs()
	n0 := db.SymTab().Len()
	for _, src := range []string{
		"up(new1, new2). flat(new3, john).\nsg(X, :- up(X, Y).",
		"up(new4, new5). sg(new6, john).",
	} {
		if err := db.LoadProgram(src); err == nil {
			t.Errorf("LoadProgram(%q) succeeded", src)
		}
	}
	if err := db.RestoreFacts(strings.NewReader("up(new7, new8). p(X) :- up(X, Y)."), f0+1); err == nil {
		t.Error("RestoreFacts of a text holding a rule succeeded")
	}
	if n := db.SymTab().Len(); n != n0 {
		t.Errorf("refused loads grew the symbol table %d -> %d", n0, n)
	}
	if r, f := db.Epochs(); r != r0 || f != f0 {
		t.Errorf("refused loads moved the epochs (%d,%d) -> (%d,%d)", r0, f0, r, f)
	}
}

// The acceptance criterion of the live-update engine, for every strategy:
// a Prepared's Run after Assert/Retract performs no plan recompilation —
// the compiled plan is the same object, and no equation transformation or
// automaton compilation ran — while still seeing every change.
func TestPreparedNoRecompileOnFactMutation(t *testing.T) {
	for _, s := range Strategies() {
		t.Run(s.String(), func(t *testing.T) {
			db := mustDB(t, `
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(a, b).
`)
			tc, err := db.Prepare("tc(?, Y)", Options{Strategy: s})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tc.Run("a"); err != nil {
				t.Fatal(err)
			}

			compiled := tc.cur.Load().plan
			tBefore, cBefore := equations.TransformCount(), automaton.CompileCount()
			db.Assert("edge", "b", "c")
			ans, err := tc.Run("a")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ans.Rows, [][]string{{"b"}, {"c"}}) {
				t.Fatalf("after assert: %v", ans.Rows)
			}
			db.Retract("edge", "b", "c")
			ans, err = tc.Run("a")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ans.Rows, [][]string{{"b"}}) {
				t.Fatalf("after retract: %v", ans.Rows)
			}
			// A long churn streak keeps the same compiled plan hot.
			for i := 0; i < 50; i++ {
				db.Assert("edge", "b", fmt.Sprintf("x%d", i))
				if _, err := tc.Run("a"); err != nil {
					t.Fatal(err)
				}
				db.Retract("edge", "b", fmt.Sprintf("x%d", i))
			}
			if tc.cur.Load().plan != compiled {
				t.Fatalf("plan rebuilt on the fact-mutation path: %T -> %T", compiled, tc.cur.Load().plan)
			}
			if tAfter := equations.TransformCount(); tAfter != tBefore {
				t.Fatalf("equation transforms ran on the fact-mutation path: %d -> %d", tBefore, tAfter)
			}
			if cAfter := automaton.CompileCount(); cAfter != cBefore {
				t.Fatalf("automaton compiles ran on the fact-mutation path: %d -> %d", cBefore, cAfter)
			}
		})
	}
}

// Plan-cache accounting across mutation kinds: fact mutations keep the
// cache (hits keep accruing, no recompiles), rule mutations clear it
// (the next query is a miss).
func TestPlanCacheSurvivesFactChurn(t *testing.T) {
	db := mustDB(t, `
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(a, b).
`)
	if _, err := db.Query("tc(a, Y)"); err != nil {
		t.Fatal(err)
	}
	st := db.PlanCacheStats()
	if st.Size != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after first query: %+v", st)
	}

	for i := 0; i < 5; i++ {
		db.Assert("edge", "b", fmt.Sprintf("n%d", i))
		if _, err := db.Query("tc(a, Y)"); err != nil {
			t.Fatal(err)
		}
		db.Retract("edge", "b", fmt.Sprintf("n%d", i))
		if _, err := db.Query("tc(a, Y)"); err != nil {
			t.Fatal(err)
		}
	}
	st = db.PlanCacheStats()
	if st.Size != 1 || st.Misses != 1 || st.Hits != 10 {
		t.Fatalf("after fact churn: %+v, want size 1, 1 miss, 10 hits", st)
	}

	// A rule mutation clears the cache: next query misses.
	if err := db.LoadProgram("tc2(X, Y) :- edge(X, Y)."); err != nil {
		t.Fatal(err)
	}
	st = db.PlanCacheStats()
	if st.Size != 0 {
		t.Fatalf("rule mutation left %d cached plans", st.Size)
	}
	if _, err := db.Query("tc(a, Y)"); err != nil {
		t.Fatal(err)
	}
	st = db.PlanCacheStats()
	if st.Misses != 2 {
		t.Fatalf("after rule mutation: %+v, want a second miss", st)
	}
}

// Apply mutates atomically: one lock, one fact-epoch movement however
// many facts a Delta holds, net-change accounting.
func TestApplyBatch(t *testing.T) {
	db := mustDB(t, `
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(a, b).
`)
	_, f0 := db.Epochs()
	res, err := db.Apply((&Delta{}).
		Assert("edge", "b", "c").
		Assert("edge", "c", "d").
		Assert("edge", "a", "b")) // duplicate
	if res.Asserted != 2 || err != nil {
		t.Fatalf("Apply inserted %d (err %v), want 2", res.Asserted, err)
	}
	if _, f := db.Epochs(); f != f0+1 {
		t.Fatalf("Apply moved the fact epoch %d times, want 1", f-f0)
	}
	ans, err := db.Query("tc(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ans.Rows, [][]string{{"b"}, {"c"}, {"d"}}) {
		t.Fatalf("after batch: %v", ans.Rows)
	}
	// A wrong-arity fact fails the whole batch before anything changes.
	if res, err := db.Apply((&Delta{}).Assert("edge", "d", "x").Assert("edge", "x")); res.Asserted != 0 || !errors.Is(err, ErrArity) {
		t.Fatalf("wrong-arity Apply = %+v, %v; want nothing and ErrArity", res, err)
	}

	// A mixed delta, in order: assert then retract the same fact nets to
	// absence, so the tmp edge contributes to neither count.
	d := (&Delta{}).
		Assert("edge", "d", "e").
		Retract("edge", "c", "d").
		Assert("edge", "tmp", "tmp2").
		Retract("edge", "tmp", "tmp2").
		Retract("edge", "never", "there")
	res = mustApply(t, db, d)
	if res.Asserted != 1 || res.Retracted != 1 {
		t.Fatalf("Apply = %+v, want 1 asserted, 1 retracted", res)
	}
	ans, err = db.Query("tc(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ans.Rows, [][]string{{"b"}, {"c"}}) {
		t.Fatalf("after delta: %v", ans.Rows)
	}
	// An empty or all-no-op delta moves nothing.
	_, f1 := db.Epochs()
	if res := mustApply(t, db, &Delta{}); res != (ApplyResult{}) {
		t.Fatalf("empty Apply = %+v", res)
	}
	if res := mustApply(t, db, (&Delta{}).Retract("edge", "never", "there")); res != (ApplyResult{}) {
		t.Fatalf("no-op Apply = %+v", res)
	}
	if _, f := db.Epochs(); f != f1 {
		t.Fatal("no-op Apply moved the fact epoch")
	}
}

// Conflicting operations on the same fact inside one delta must net
// out consistently everywhere: ApplyResult counts, the at-most-one
// epoch move, the stored facts, and a materialized view maintained
// from the delta. Both orderings (assert-then-retract and
// retract-then-assert) are exercised against present and absent facts.
func TestApplyConflictingOps(t *testing.T) {
	db := mustDB(t, `
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(a, b). edge(b, c).
`)
	p, err := db.Prepare("tc(a, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	check := func(step string, res ApplyResult, wantA, wantR int, movedWant bool, f0 uint64, wantRows [][]string) {
		t.Helper()
		if res.Asserted != wantA || res.Retracted != wantR {
			t.Fatalf("%s: Apply = %+v, want {%d %d}", step, res, wantA, wantR)
		}
		_, f := db.Epochs()
		if moved := f != f0; moved != movedWant {
			t.Fatalf("%s: epoch moved=%v, want %v", step, moved, movedWant)
		}
		rows, _ := m.Snapshot()
		if len(rows) == 0 {
			rows = nil
		}
		if !reflect.DeepEqual(rows, wantRows) {
			t.Fatalf("%s: view rows %v, want %v", step, rows, wantRows)
		}
		ans, err := db.Query("tc(a, Y)")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ans.Rows, wantRows) {
			t.Fatalf("%s: query rows %v, want %v", step, ans.Rows, wantRows)
		}
	}

	// Retract-then-assert of a present fact: net no change, no epoch move.
	_, f0 := db.Epochs()
	res := mustApply(t, db, (&Delta{}).Retract("edge", "a", "b").Assert("edge", "a", "b"))
	check("retract-assert present", res, 0, 0, false, f0, [][]string{{"b"}, {"c"}})

	// Assert-then-retract of an absent fact: net no change, no epoch move.
	_, f0 = db.Epochs()
	res = mustApply(t, db, (&Delta{}).Assert("edge", "c", "d").Retract("edge", "c", "d"))
	check("assert-retract absent", res, 0, 0, false, f0, [][]string{{"b"}, {"c"}})

	// Retract-then-assert of an absent fact: nets to one insertion.
	_, f0 = db.Epochs()
	res = mustApply(t, db, (&Delta{}).Retract("edge", "c", "d").Assert("edge", "c", "d"))
	check("retract-assert absent", res, 1, 0, true, f0, [][]string{{"b"}, {"c"}, {"d"}})

	// Assert-then-retract of a present fact: nets to one deletion.
	_, f0 = db.Epochs()
	res = mustApply(t, db, (&Delta{}).Assert("edge", "c", "d").Retract("edge", "c", "d"))
	check("assert-retract present", res, 0, 1, true, f0, [][]string{{"b"}, {"c"}})

	// A flip-flop chain collapses to its final state.
	_, f0 = db.Epochs()
	res = mustApply(t, db, (&Delta{}).
		Assert("edge", "b", "z").
		Retract("edge", "b", "z").
		Assert("edge", "b", "z").
		Retract("edge", "a", "b").
		Assert("edge", "a", "b"))
	check("flip-flop", res, 1, 0, true, f0, [][]string{{"b"}, {"c"}, {"z"}})
}

// Asserting constants the symbol table has never seen grows the Sym
// domain past what the plan's earlier runs visited; the visited set must
// hook blocks for the new terms rather than truncate answers.
func TestSymBoundGrowsMidLifetime(t *testing.T) {
	db := mustDB(t, `
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(a, b).
`)
	p, err := db.Prepare("tc(?, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run("a"); err != nil {
		t.Fatal(err)
	}
	// A chain of brand-new constants, appended one hop at a time.
	prev := "b"
	for i := 0; i < 200; i++ {
		next := fmt.Sprintf("fresh%d", i)
		db.Assert("edge", prev, next)
		prev = next
	}
	ans, err := p.Run("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 201 {
		t.Fatalf("got %d reachable nodes, want 201", len(ans.Rows))
	}
	if ans.Rows[len(ans.Rows)-1][0] != "fresh99" { // lexicographic sort: fresh99 is last
		t.Fatalf("unexpected last row %v", ans.Rows[len(ans.Rows)-1])
	}
}

// A plan and a view built before their base relation exists answer, once
// a write creates it, exactly as a plan prepared afterwards: the same
// rows and the same nodes, lookups and facts consulted, whether the write
// is an Assert, a facts-only LoadProgram (a built CSR) or an IngestCSV.
// Nothing recompiles, and the compiled automaton, its relation indexes
// included, is left as it compiled: each run binds the relations it
// probes.
func TestRefreshResolvesLateRelation(t *testing.T) {
	const rules = `
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
`
	edges := [][2]string{{"c0", "c1"}, {"c1", "c2"}, {"c2", "c3"}, {"c1", "c3"}, {"c3", "c1"}, {"c4", "c0"}}
	var facts, csv strings.Builder
	for _, e := range edges {
		fmt.Fprintf(&facts, "edge(%s, %s).\n", e[0], e[1])
		fmt.Fprintf(&csv, "%s,%s\n", e[0], e[1])
	}
	for _, c := range []struct {
		name   string
		create func(db *DB) error
		built  bool // the write lays edge out as a frozen CSR
	}{
		{"assert", func(db *DB) error {
			for _, e := range edges {
				if _, err := db.Assert("edge", e[0], e[1]); err != nil {
					return err
				}
			}
			return nil
		}, false},
		{"load", func(db *DB) error { return db.LoadProgram(facts.String()) }, true},
		{"ingest", func(db *DB) error { _, err := db.IngestCSV(strings.NewReader(csv.String()), "edge"); return err }, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := NewDB()
			if err := db.LoadProgram(rules); err != nil {
				t.Fatal(err)
			}
			p, err := db.Prepare("tc(?, Y)", Options{Strategy: Chain})
			if err != nil {
				t.Fatal(err)
			}
			view, err := p.Materialize("c0")
			if err != nil {
				t.Fatal(err)
			}
			defer view.Close()
			if ans, err := p.Run("c0"); err != nil || len(ans.Rows) != 0 {
				t.Fatalf("empty DB answered %v, %v", ans, err)
			}
			eng := p.cur.Load().plan.(*chainPlan).eng
			m := eng.Automaton("tc")
			compiled, compiledEdges := m.String(), edgesOf(m)

			if err := c.create(db); err != nil {
				t.Fatal(err)
			}
			if got := db.Store().Relation("edge").Frozen(); got != c.built {
				t.Fatalf("edge frozen = %v, want %v", got, c.built)
			}
			for _, a := range []string{"c0", "c4", "c2"} {
				tBefore, cBefore := equations.TransformCount(), automaton.CompileCount()
				ans, err := p.Run(a)
				if err != nil {
					t.Fatal(err)
				}
				if equations.TransformCount() != tBefore || automaton.CompileCount() != cBefore {
					t.Fatal("late relation materialization recompiled the plan")
				}
				fresh, err := db.Prepare("tc(?, Y)", Options{Strategy: Chain})
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Run(a)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ans.Rows, want.Rows) || len(want.Rows) == 0 {
					t.Fatalf("tc(%s, Y) = %v, a plan prepared afterwards %v", a, ans.Rows, want.Rows)
				}
				if g, w := ans.Stats, want.Stats; g.Strategy != Chain || g.Nodes != w.Nodes || g.Lookups != w.Lookups || g.FactsConsulted != w.FactsConsulted {
					t.Fatalf("tc(%s, Y): nodes/lookups/facts %d/%d/%d, a plan prepared afterwards %d/%d/%d",
						a, g.Nodes, g.Lookups, g.FactsConsulted, w.Nodes, w.Lookups, w.FactsConsulted)
				}
				if a == "c0" {
					if rows, _, _ := view.State(); !reflect.DeepEqual(rows, want.Rows) {
						t.Fatalf("view tc(c0, Y) = %v, a run %v", rows, want.Rows)
					}
				}
			}
			if m.String() != compiled || !reflect.DeepEqual(edgesOf(m), compiledEdges) {
				t.Fatalf("the write changed the compiled automaton or its relation indexes:\n%s\nwas\n%s", m, compiled)
			}
		})
	}
}

// edgesOf copies every state's edges of m, relation indexes included.
func edgesOf(m *automaton.NFA) [][]automaton.Edge {
	out := make([][]automaton.Edge, m.NumStates())
	for q := range out {
		out[q] = slices.Clone(m.Edges(q))
	}
	return out
}

// Retractions must not resurface through persistence: DumpFacts writes
// only live facts and the dump round-trips into an equivalent DB.
func TestPersistRetractRoundTrip(t *testing.T) {
	db := mustDB(t, `
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(a, b). edge(b, c). edge(c, d).
`)
	db.Retract("edge", "b", "c")
	db.Assert("edge", "b", "e")

	var facts, rules bytes.Buffer
	if err := db.DumpFacts(&facts); err != nil {
		t.Fatal(err)
	}
	if err := db.DumpRules(&rules); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(facts.String(), "edge(b,c)") {
		t.Fatalf("retracted fact in dump:\n%s", facts.String())
	}

	re := NewDB()
	if err := re.LoadProgram(rules.String()); err != nil {
		t.Fatal(err)
	}
	if err := re.LoadProgram(facts.String()); err != nil {
		t.Fatal(err)
	}
	want, err := db.Query("tc(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Query("tc(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("round trip: %v vs %v", got.Rows, want.Rows)
	}
	if !reflect.DeepEqual(want.Rows, [][]string{{"b"}, {"e"}}) {
		t.Fatalf("post-retract answers: %v", want.Rows)
	}
}

// Concurrent Runs race Apply batches; run with -race. Every answer must
// be internally consistent (a state the DB actually passed through: the
// alternating delta keeps exactly one of two worlds visible) and the
// final state must be exact.
func TestConcurrentRunDuringApply(t *testing.T) {
	db := mustDB(t, `
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(a, b). edge(b, c).
`)
	p, err := db.Prepare("tc(?, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	withD := [][]string{{"b"}, {"c"}, {"d"}}
	withoutD := [][]string{{"b"}, {"c"}}

	const runners = 8
	iters := 150
	if testing.Short() {
		iters = 40
	}
	var wg sync.WaitGroup
	errs := make(chan error, runners+1)
	stop := make(chan struct{})
	for g := 0; g < runners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ans, err := p.Run("a")
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(ans.Rows, withD) && !reflect.DeepEqual(ans.Rows, withoutD) {
					errs <- fmt.Errorf("inconsistent snapshot: %v", ans.Rows)
					return
				}
			}
		}()
	}
	for i := 0; i < iters; i++ {
		db.Apply((&Delta{}).Assert("edge", "c", "d"))
		db.Apply((&Delta{}).Retract("edge", "c", "d"))
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ans, err := p.Run("a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ans.Rows, withoutD) {
		t.Fatalf("final state: %v", ans.Rows)
	}
}
