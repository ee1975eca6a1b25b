package chainlog

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// A literal, the template of its shape and a template that only calls its
// variable something else compile once and run one plan; each keeps the
// variable names its caller wrote.
func TestLiteralAndTemplatesShareOnePlan(t *testing.T) {
	db := mustDB(t, sgSrc)
	lit, err := db.Query("sg(john, W)")
	if err != nil {
		t.Fatal(err)
	}
	py, err := db.PrepareCached(nil, "sg(?, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	pz, err := db.PrepareCached(nil, "sg(?, Z)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := db.PlanCacheStats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("three spellings of one shape: %+v, want 1 miss and 2 hits", st)
	}
	if py.compiled != pz.compiled {
		t.Fatal("sg(?, Y) and sg(?, Z) do not share their compiled state")
	}
	again, err := db.PrepareCached(nil, "sg(?, Y)", Options{})
	if err != nil || again != py {
		t.Fatalf("a warm lookup returned another handle (err %v)", err)
	}
	for _, c := range []struct {
		p    *Prepared
		vars []string
	}{{py, []string{"Y"}}, {pz, []string{"Z"}}} {
		ans, err := c.p.Run("john")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ans.Vars, c.vars) || !reflect.DeepEqual(c.p.Vars(), c.vars) || !reflect.DeepEqual(ans.Rows, lit.Rows) {
			t.Fatalf("%s: vars %v rows %v, want %v and %v", c.p, ans.Vars, ans.Rows, c.vars, lit.Rows)
		}
	}
	if !reflect.DeepEqual(lit.Vars, []string{"W"}) {
		t.Fatalf("literal's vars %v, want [W]", lit.Vars)
	}
	m, err := pz.Materialize("john")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.Vars(); !reflect.DeepEqual(got, []string{"Z"}) {
		t.Fatalf("view of sg(?, Z) names its columns %v", got)
	}
	// A constant in a template is part of its shape.
	if _, err := db.PrepareCached(nil, "sg(john, Y)", Options{}); err != nil {
		t.Fatal(err)
	}
	if st := db.PlanCacheStats(); st.Misses != 2 {
		t.Fatalf("sg(john, Y) as a template should compile its own plan: %+v", st)
	}
}

// The cache's keys hold client-supplied template texts, so cycling them
// must not grow the cache past its bound.
func TestPlanCacheBounded(t *testing.T) {
	db := mustDB(t, sgSrc)
	for i := 0; i < maxCachedPlans+50; i++ {
		if _, err := db.PrepareCached(nil, fmt.Sprintf("sg(?, Y%d)", i), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.PlanCacheStats(); st.Size > maxCachedPlans {
		t.Fatalf("plan cache grew to %d entries, bound is %d", st.Size, maxCachedPlans)
	}
}

// A node cap is the run's, not the plan's: handles that differ only in
// MaxNodes share one compiled plan, and each run stops at its own
// handle's cap, whichever handle compiled the plan and however many run
// at once.
func TestMaxNodesRidesWithTheRun(t *testing.T) {
	chain := Options{Strategy: Chain}
	capped, uncapped := chain, chain
	capped.MaxNodes = 2
	db := mustDB(t, sgSrc)
	for i := range 2000 {
		opts := chain
		opts.MaxNodes = 1000 + i
		if _, err := db.PrepareCached(nil, "sg(?, Y)", opts); err != nil {
			t.Fatal(err)
		}
		if _, err := db.QueryOpts("sg(john, Y)", opts); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.PlanCacheStats(); st.Misses != 1 {
		t.Fatalf("2,000 caps compiled %d plans, want 1: %+v", st.Misses, st)
	}

	// run asks sg(john, Y) under opts through both ways in and checks the
	// outcome its cap calls for.
	run := func(db *DB, opts Options) error {
		p, err := db.PrepareCached(nil, "sg(?, Y)", opts)
		if err != nil {
			return err
		}
		viaHandle, errHandle := p.Run("john")
		viaLiteral, errLiteral := db.QueryOpts("sg(john, Y)", opts)
		for _, r := range []struct {
			ans *Answer
			err error
		}{{viaHandle, errHandle}, {viaLiteral, errLiteral}} {
			switch {
			case opts.MaxNodes == 2 && !errors.Is(r.err, ErrMaxNodes):
				return fmt.Errorf("MaxNodes 2: want ErrMaxNodes, got %v", r.err)
			case opts.MaxNodes == 0 && r.err != nil:
				return fmt.Errorf("uncapped: %v", r.err)
			case opts.MaxNodes == 0 && !reflect.DeepEqual(r.ans.Rows, sgJohnWant):
				return fmt.Errorf("uncapped: rows %v, want %v", r.ans.Rows, sgJohnWant)
			}
		}
		return nil
	}
	for _, order := range [][2]Options{{capped, uncapped}, {uncapped, capped}} {
		db := mustDB(t, sgSrc)
		for _, opts := range append(order[:], order[:]...) {
			if err := run(db, opts); err != nil {
				t.Fatalf("first inserted MaxNodes %d: %v", order[0].MaxNodes, err)
			}
		}
		if st := db.PlanCacheStats(); st.Misses != 1 {
			t.Fatalf("first inserted MaxNodes %d: %d plans compiled, want 1", order[0].MaxNodes, st.Misses)
		}
	}

	db = mustDB(t, sgSrc)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				opts := uncapped
				if (g+i)%2 == 0 {
					opts = capped
				}
				if errs[g] = run(db, opts); errs[g] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if st := db.PlanCacheStats(); st.Misses != 1 {
		t.Fatalf("8 goroutines compiled %d plans, want 1", st.Misses)
	}
}

// Many concurrent requests for one cold template compile it once.
func TestPlanCacheSingleFlight(t *testing.T) {
	db := mustDB(t, sgSrc)
	const n = 32
	var wg sync.WaitGroup
	plans := make([]*Prepared, n)
	errs := make([]error, n)
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plans[i], errs[i] = db.PrepareCached(context.Background(), "sg(?, Y)", Options{})
		}()
	}
	wg.Wait()
	for i := range plans {
		if errs[i] != nil || plans[i] != plans[0] {
			t.Fatalf("request %d: plan %p (first %p), err %v", i, plans[i], plans[0], errs[i])
		}
	}
	if st := db.PlanCacheStats(); st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("thundering herd: %+v, want 1 miss and %d hits", st, n-1)
	}
}

// A request that finds its template compiling waits no longer than its
// context allows and gets the context's cause; the compilation lands for
// the next request all the same.
func TestPlanCacheWaiterDeadline(t *testing.T) {
	db := mustDB(t, sgSrc)
	db.mu.Lock() // a compilation takes the read lock: it cannot finish
	built := make(chan error, 1)
	go func() {
		_, err := db.PrepareCached(context.Background(), "sg(?, Y)", Options{})
		built <- err
	}()
	for db.PlanCacheStats().Misses == 0 { // the builder has reached the compiler
		runtime.Gosched()
	}
	cause := errors.New("the waiter gave up")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, err := db.PrepareCached(ctx, "sg(?, Y)", Options{}); !errors.Is(err, cause) {
		t.Fatalf("waiter's error %v, want its context's cause", err)
	}
	if _, err := db.QueryOptsCtx(ctx, "sg(john, Y)", Options{}); !errors.Is(err, cause) {
		t.Fatalf("literal of the compiling shape: error %v, want the context's cause", err)
	}
	db.mu.Unlock()
	if err := <-built; err != nil {
		t.Fatal(err)
	}
	if _, err := db.PrepareCached(context.Background(), "sg(?, Y)", Options{}); err != nil {
		t.Fatal(err)
	}
	if st := db.PlanCacheStats(); st.Misses != 1 {
		t.Fatalf("%+v, want the one compilation", st)
	}
}

// A template that fails to compile is not retained: the next request
// tries again.
func TestPlanCacheFailedCompileRetried(t *testing.T) {
	db := mustDB(t, sgBesideTwoSidedSrc)
	strict := Options{Strategy: Chain, Strict: true} // two-sided nonlinear: no chain route
	for attempt := 1; attempt <= 2; attempt++ {
		if _, err := db.PrepareCached(nil, "p(?, Y)", strict); err == nil {
			t.Fatal("a nonlinear program compiled under Strict")
		}
		if st := db.PlanCacheStats(); st.Size != 0 || st.Misses != uint64(attempt) {
			t.Fatalf("after failure %d: %+v, want nothing kept and %d compilations tried", attempt, st, attempt)
		}
	}
	if _, err := db.PrepareCached(nil, "p(?", Options{}); err == nil {
		t.Fatal("a malformed template parsed")
	}
	if st := db.PlanCacheStats(); st.Size != 0 {
		t.Fatalf("a template that does not parse left %d entries", st.Size)
	}
}

// The hit path of a template request parses nothing.
func TestPlanCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	db := mustDB(t, sgSrc)
	opts := Options{MaxNodes: 1 << 20}
	ctx := context.Background()
	if _, err := db.PrepareCached(ctx, "sg(?, Y)", opts); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := db.PrepareCached(ctx, "sg(?, Y)", opts); err != nil {
			panic(fmt.Sprint(err))
		}
	}); n != 0 {
		t.Fatalf("warm lookup by template text allocates %v objects, want 0", n)
	}
}
