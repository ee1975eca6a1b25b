package chainlog

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// Runs of one Auto handle stamp, and record into, the choice they ran,
// while other runs of the handle re-optimize it. The shape keeps the
// handle moving between routes: same-generation over cycles, where each
// cardinality drift sends the model back to the chain route and the
// chain runs' measured work then moves it to a bottom-up one. A writer
// drives the drift by adding and removing a batch of edges between
// reader runs. Every answer must be one of the two fact states' answers,
// and its Stats.Strategy must name the route whose work it reports: the
// tuples that route retrieves in that state, Firings only from seminaive
// or qsqnet, Expansions and AnswerCompleteAt only from chain. Every
// per-strategy measurement the optimizer keeps must lie within what its
// route retrieves. Meaningful under -race.
func TestRunsKeepTheirChoice(t *testing.T) {
	const (
		n       = 64  // nodes on each relation's cycle
		extra   = 32  // chords a write adds or removes: past the drift floors
		readers = 4   // goroutines running the handle
		flips   = 12  // writes
		between = 6   // reader runs between two writes
		minRuns = 200 // reader runs in all, at least
	)
	db := mustDB(t, "sg(X, Y) :- flat(X, Y).\nsg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).\n")
	chords := func(assert bool) *Delta {
		d := &Delta{}
		for _, pred := range []string{"up", "flat", "down"} {
			for i := 0; i < extra; i++ {
				// A flat chord leaves the cycles, so it moves the answer.
				a, b := fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", (i+5)%n)
				if pred == "flat" {
					b = fmt.Sprintf("m%d", i)
				}
				if assert {
					d.Assert(pred, a, b)
				} else {
					d.Retract(pred, a, b)
				}
			}
		}
		return d
	}
	base := &Delta{}
	for _, pred := range []string{"up", "flat", "down"} {
		for i := 0; i < n; i++ {
			base.Assert(pred, fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", (i+1)%n))
		}
	}
	db.Apply(base)

	// The answers of the two fact states, and the work each route does
	// for them, from pinned handles.
	routes := []Strategy{Chain, Seminaive, QSQNet}
	var (
		want [2][][]string
		work [strategyCount][2]int64
	)
	for state := range 2 {
		if state == 1 {
			db.Apply(chords(true))
		}
		for _, s := range routes {
			pinned, err := db.Prepare("sg(?, Y)", Options{Strategy: s})
			if err != nil {
				t.Fatal(err)
			}
			ans, err := pinned.Run("n0")
			if err != nil {
				t.Fatal(err)
			}
			if ans.Stats.Strategy != s {
				t.Fatalf("pinned %v ran as %v", s, ans.Stats.Strategy)
			}
			want[state], work[s][state] = ans.Rows, ans.Stats.FactsConsulted
		}
	}
	db.Apply(chords(false))
	if reflect.DeepEqual(want[0], want[1]) {
		t.Fatal("the chords should change the answer")
	}
	// A measurement that mixed the routes' runs must show: the chain does
	// far more work than either bottom-up route in either state.
	if least := min(work[Chain][0], work[Chain][1]); max(work[Seminaive][0], work[Seminaive][1], work[QSQNet][0], work[QSQNet][1]) >= least {
		t.Fatalf("the routes' work overlaps: %v", work)
	}

	p, err := db.Prepare("sg(?, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	var (
		runs atomic.Int64
		done atomic.Bool
		mu   sync.Mutex
		// count[s] is the number of runs stamped s.
		count [strategyCount]int
	)
	errs := make(chan error, readers) // a reader sends at most once
	var wg sync.WaitGroup
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() || runs.Load() < minRuns {
				ans, err := p.Run("n0")
				if err != nil {
					errs <- err
					return
				}
				runs.Add(1)
				st := ans.Stats
				state := slices.IndexFunc(want[:], func(rows [][]string) bool { return reflect.DeepEqual(ans.Rows, rows) })
				if state < 0 {
					errs <- fmt.Errorf("%v run answered %v, neither fact state's answer", st.Strategy, ans.Rows)
					return
				}
				if !slices.Contains(routes, st.Strategy) || st.FactsConsulted != work[st.Strategy][state] {
					errs <- fmt.Errorf("a run stamped %v retrieved %d tuples; that route retrieves %d", st.Strategy, st.FactsConsulted, work[st.Strategy][state])
					return
				}
				if (st.Strategy == Chain) != (st.Firings == 0) || (st.Strategy == Chain) != (st.Expansions > 0 && st.AnswerCompleteAt > 0) {
					errs <- fmt.Errorf("a run stamped %v reports another route's work: %+v", st.Strategy, st)
					return
				}
				mu.Lock()
				count[st.Strategy]++
				mu.Unlock()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := range flips {
			for next := int64(i+1) * between; runs.Load() < next; {
				if len(errs) > 0 {
					return
				}
				runtime.Gosched()
			}
			db.Apply(chords(i%2 == 0))
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	pc := p.Plan()
	t.Logf("%d runs, %d re-optimizations; runs per strategy %v, work per strategy and state %v", runs.Load(), pc.Reoptimizations, count, work)
	if count[Chain] == 0 || count[Seminaive]+count[QSQNet] == 0 || pc.Reoptimizations < flips {
		t.Fatalf("the handle should move between the chain and a bottom-up route on every drift: %d re-optimizations, runs per strategy %v", pc.Reoptimizations, count)
	}
	// A slot is written by runs of its strategy alone, so it is one of
	// their measurements or a weighted mean of them.
	for _, s := range routes {
		w := math.Float64frombits(p.obsByStrategy[s].Load())
		lo, hi := float64(min(work[s][0], work[s][1])), float64(max(work[s][0], work[s][1]))
		if w != 0 && (w < lo*(1-1e-9) || w > hi*(1+1e-9)) {
			t.Errorf("the %v slot holds %.1f retrievals a run; that route retrieves %v", s, w, work[s])
		}
	}
}
