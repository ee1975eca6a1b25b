package chainlog

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"chainlog/internal/automaton"
	"chainlog/internal/equations"
)

// Prepare compiles once; Run binds the placeholder to many constants and
// each run agrees with the one-shot Query API.
func TestPreparedBindMany(t *testing.T) {
	db := mustDB(t, sgSrc)
	sg, err := db.Prepare("sg(?, Y)", Options{})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if sg.NumParams() != 1 || !reflect.DeepEqual(sg.Vars(), []string{"Y"}) {
		t.Fatalf("template metadata: params=%d vars=%v", sg.NumParams(), sg.Vars())
	}
	for _, who := range []string{"john", "ann", "bob", "gp", "stranger"} {
		got, err := sg.Run(who)
		if err != nil {
			t.Fatalf("Run(%s): %v", who, err)
		}
		want, err := db.Query(fmt.Sprintf("sg(%s, Y)", who))
		if err != nil {
			t.Fatalf("Query(%s): %v", who, err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("Run(%s) = %v, Query = %v", who, got.Rows, want.Rows)
		}
	}
}

// The Section 4 route is rebindable too: one transformation, many bound
// tuples, including a template mixing '?' with literal constants.
func TestPreparedSection4(t *testing.T) {
	db := mustDB(t, flightSrc)
	cnx, err := db.Prepare("cnx(?, ?, D, AT)", Options{})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	cases := [][2]string{{"hel", "900"}, {"sto", "1100"}, {"par", "1400"}, {"sto", "930"}}
	for _, c := range cases {
		got, err := cnx.Run(c[0], c[1])
		if err != nil {
			t.Fatalf("Run(%v): %v", c, err)
		}
		want, err := db.Query(fmt.Sprintf("cnx(%s, %s, D, AT)", c[0], c[1]))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("Run(%v) = %v, Query = %v", c, got.Rows, want.Rows)
		}
	}
	// Mixed template: first argument fixed, second a parameter.
	fromHel, err := db.Prepare("cnx(hel, ?, D, AT)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fromHel.Run("900")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := db.Query("cnx(hel, 900, D, AT)")
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("mixed template: %v vs %v", got.Rows, want.Rows)
	}
}

// After the first Run, no equation transformation and no automaton
// compilation happens — the paper's "fixed automaton hierarchy driven by
// the bound constant", amortized across calls.
func TestPreparedZeroRecompilation(t *testing.T) {
	for _, tc := range []struct {
		name, query string
		args        [][]string
	}{
		{"direct-bf", "sg(?, Y)", [][]string{{"john"}, {"ann"}, {"bob"}, {"gp"}}},
		{"direct-fb", "sg(X, ?)", [][]string{{"john"}, {"ann"}, {"bob"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := mustDB(t, sgSrc)
			p, err := db.Prepare(tc.query, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Run(tc.args[0]...); err != nil {
				t.Fatal(err)
			}
			tBefore, cBefore := equations.TransformCount(), automaton.CompileCount()
			for _, args := range tc.args {
				if _, err := p.Run(args...); err != nil {
					t.Fatal(err)
				}
			}
			if tAfter := equations.TransformCount(); tAfter != tBefore {
				t.Fatalf("equation transforms ran during Run: %d -> %d", tBefore, tAfter)
			}
			if cAfter := automaton.CompileCount(); cAfter != cBefore {
				t.Fatalf("automaton compiles ran during Run: %d -> %d", cBefore, cAfter)
			}
		})
	}

	t.Run("section4", func(t *testing.T) {
		db := mustDB(t, flightSrc)
		p, err := db.Prepare("cnx(?, ?, D, AT)", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run("hel", "900"); err != nil {
			t.Fatal(err)
		}
		tBefore, cBefore := equations.TransformCount(), automaton.CompileCount()
		for _, c := range [][2]string{{"sto", "1100"}, {"par", "1400"}, {"sto", "930"}, {"hel", "900"}} {
			if _, err := p.Run(c[0], c[1]); err != nil {
				t.Fatal(err)
			}
		}
		if tAfter := equations.TransformCount(); tAfter != tBefore {
			t.Fatalf("equation transforms ran during Run: %d -> %d", tBefore, tAfter)
		}
		if cAfter := automaton.CompileCount(); cAfter != cBefore {
			t.Fatalf("automaton compiles ran during Run: %d -> %d", cBefore, cAfter)
		}
	})
}

// Explain prints the automaton the plan runs — the engine's cached
// M(e_p) — not a second compilation of the equation: explaining a shape
// the plan cache holds compiles nothing.
func TestExplainCompilesNothing(t *testing.T) {
	db := mustDB(t, sgSrc)
	if _, err := db.Query("sg(john, Y)"); err != nil {
		t.Fatal(err)
	}
	tBefore, cBefore := equations.TransformCount(), automaton.CompileCount()
	out, err := db.Explain("sg(ann, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "automaton M(e_sg):\nstart=q0 final=q1 states=4\n") || !strings.Contains(out, "q2 -sg-> q3") {
		t.Fatalf("Explain does not show the id-free M(e_sg):\n%s", out)
	}
	if d := automaton.CompileCount() - cBefore; d != 0 {
		t.Fatalf("Explain of a cached shape compiled %d automata", d)
	}
	if d := equations.TransformCount() - tBefore; d != 0 {
		t.Fatalf("Explain of a cached shape ran %d equation transforms", d)
	}
}

// Query/QueryOpts are wrappers over Prepare+Run: repeating a query shape
// with different constants hits the plan cache.
func TestQueryHitsPlanCache(t *testing.T) {
	db := mustDB(t, sgSrc)
	for _, who := range []string{"john", "ann", "bob"} {
		if _, err := db.Query(fmt.Sprintf("sg(%s, Y)", who)); err != nil {
			t.Fatal(err)
		}
	}
	st := db.PlanCacheStats()
	if st.Size != 1 {
		t.Fatalf("expected one cached plan, have %d", st.Size)
	}
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("expected 1 miss + 2 hits, have %+v", st)
	}
	// A different shape (repeated variable) must not share the plan.
	if _, err := db.Query("sg(X, X)"); err != nil {
		t.Fatal(err)
	}
	if st := db.PlanCacheStats(); st.Size != 2 {
		t.Fatalf("sg(X, X) should compile its own plan: %+v", st)
	}
}

// Mutations bump the DB epoch; stale plans recompile transparently and
// see the new facts.
func TestPreparedInvalidation(t *testing.T) {
	db := mustDB(t, `
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(a, b).
`)
	tc, err := db.Prepare("tc(?, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := tc.Run("a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ans.Rows, [][]string{{"b"}}) {
		t.Fatalf("before assert: %v", ans.Rows)
	}
	db.Assert("edge", "b", "c")
	ans, err = tc.Run("a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ans.Rows, [][]string{{"b"}, {"c"}}) {
		t.Fatalf("after assert: %v", ans.Rows)
	}
	// Loading more rules also invalidates.
	if err := db.LoadProgram("edge(c, d)."); err != nil {
		t.Fatal(err)
	}
	ans, err = tc.Run("a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ans.Rows, [][]string{{"b"}, {"c"}, {"d"}}) {
		t.Fatalf("after load: %v", ans.Rows)
	}
}

// N goroutines run the same Prepared against distinct constants; run
// with -race. Covers both the direct route and the Section 4 route
// (whose evaluation interns tuple terms concurrently).
func TestPreparedConcurrentRuns(t *testing.T) {
	db := mustDB(t, sgSrc)
	sg, err := db.Prepare("sg(?, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	people := []string{"john", "ann", "bob", "gp", "p1", "p2"}
	want := make(map[string][][]string)
	for _, who := range people {
		ans, err := sg.Run(who)
		if err != nil {
			t.Fatal(err)
		}
		want[who] = ans.Rows
	}

	const goroutines = 16
	const repeats = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < repeats; i++ {
				who := people[(g+i)%len(people)]
				ans, err := sg.Run(who)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(ans.Rows, want[who]) {
					errs <- fmt.Errorf("goroutine %d: Run(%s) = %v, want %v", g, who, ans.Rows, want[who])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPreparedConcurrentSection4(t *testing.T) {
	db := mustDB(t, flightSrc)
	cnx, err := db.Prepare("cnx(?, ?, D, AT)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := [][2]string{{"hel", "900"}, {"sto", "1100"}, {"par", "1400"}, {"sto", "930"}}
	want := make([][][]string, len(cases))
	for i, c := range cases {
		ans, err := cnx.Run(c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ans.Rows
	}
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				k := (g + i) % len(cases)
				ans, err := cnx.Run(cases[k][0], cases[k][1])
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(ans.Rows, want[k]) {
					errs <- fmt.Errorf("Run(%v) = %v, want %v", cases[k], ans.Rows, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Concurrent one-shot queries exercise the plan cache itself (racing
// builders, shared cached plans) rather than a single Prepared handle.
func TestConcurrentQueryPlanCache(t *testing.T) {
	db := mustDB(t, sgSrc)
	want, err := db.Query("sg(john, Y)")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				ans, err := db.Query("sg(john, Y)")
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(ans.Rows, want.Rows) {
					errs <- fmt.Errorf("got %v want %v", ans.Rows, want.Rows)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Every strategy round-trips through its CLI name.
func TestStrategyStringRoundTrip(t *testing.T) {
	all := Strategies()
	if got := fmt.Sprint(all); got != "[auto chain seminaive qsqnet]" {
		t.Fatalf("Strategies() = %s", got)
	}
	for _, s := range all {
		got, err := ParseStrategy(s.String())
		if err != nil {
			t.Fatalf("ParseStrategy(%q): %v", s.String(), err)
		}
		if got != s {
			t.Fatalf("round trip %v -> %q -> %v", s, s.String(), got)
		}
	}
}

// Prepared plans work for every strategy, agreeing with one-shot queries.
func TestPreparedAllStrategies(t *testing.T) {
	for _, s := range Strategies() {
		t.Run(s.String(), func(t *testing.T) {
			db := mustDB(t, sgSrc)
			p, err := db.Prepare("sg(?, Y)", Options{Strategy: s})
			if err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			ans, err := p.Run("john")
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !reflect.DeepEqual(ans.Rows, sgJohnWant) {
				t.Fatalf("got %v want %v", ans.Rows, sgJohnWant)
			}
		})
	}
}

func TestPreparedErrors(t *testing.T) {
	db := mustDB(t, sgSrc)
	// Wrong parameter count.
	sg, err := db.Prepare("sg(?, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sg.Run("john", "ann"); err == nil {
		t.Error("excess parameters accepted")
	}
	if _, err := sg.Run(); err == nil {
		t.Error("missing parameters accepted")
	}
	// '?' outside a template.
	if _, err := db.Query("sg(?, Y)"); err == nil {
		t.Error("'?' placeholder accepted by Query")
	}
}

// A fully bound template answers True/False per parameter vector.
func TestPreparedBooleanTemplate(t *testing.T) {
	db := mustDB(t, sgSrc)
	p, err := db.Prepare("sg(?, ?)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	yes, err := p.Run("john", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if !yes.True {
		t.Error("sg(john, bob) should hold")
	}
	no, err := p.Run("john", "gp")
	if err != nil {
		t.Fatal(err)
	}
	if no.True {
		t.Error("sg(john, gp) should not hold")
	}
}
