package chainlog

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The plan-choice regression corpus: curated query/data shapes under
// testdata/planchoice, each recording which alternative measures fastest.
// The gate asserts the optimizer's pick is never more than 25% slower
// than the measured best — a mis-tuned cost constant that flips a corpus
// decision fails here, exactly like a perturbed bench baseline.

// planChoiceSlack is the gate: auto's measured time may exceed the best
// alternative's by at most this factor (plus a small absolute floor that
// absorbs scheduler noise on cases that run in microseconds).
const (
	planChoiceSlack    = 1.25
	planChoiceMinDelta = 500 * time.Microsecond
)

type corpusFactSpec struct {
	Pred       string `json:"pred"`
	Kind       string `json:"kind"`
	N          int    `json:"n,omitempty"`
	M          int    `json:"m,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	Airports   int    `json:"airports,omitempty"`
	PerAirport int    `json:"per_airport,omitempty"`
}

type corpusCase struct {
	Name       string           `json:"name"`
	Comment    string           `json:"comment,omitempty"`
	Program    string           `json:"program"`
	Query      string           `json:"query"`
	Args       []string         `json:"args"`
	Facts      []corpusFactSpec `json:"facts"`
	ExpectBest string           `json:"expect_best,omitempty"`
}

// loadCorpusDB builds the case's database: program plus generated facts.
func loadCorpusDB(t testing.TB, c corpusCase) *DB {
	t.Helper()
	db := NewDB()
	if err := db.LoadProgram(c.Program); err != nil {
		t.Fatalf("%s: load program: %v", c.Name, err)
	}
	for _, f := range c.Facts {
		genCorpusFacts(t, db, f)
	}
	return db
}

func genCorpusFacts(t testing.TB, db *DB, f corpusFactSpec) {
	t.Helper()
	d := &Delta{}
	switch f.Kind {
	case "chain":
		for i := 0; i < f.N; i++ {
			d.Assert(f.Pred, fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
		}
	case "cycle3":
		// A single-carrier flight cycle: every airport is reachable from
		// every seed, so a binding restricts nothing.
		for i := 0; i < f.N; i++ {
			d.Assert(f.Pred, fmt.Sprintf("a%d", i), fmt.Sprintf("a%d", (i+1)%f.N), "acme")
		}
	case "unary":
		// Domain padding: an unrelated relation whose constants enlarge
		// the active domain without touching the query's join graph.
		for i := 0; i < f.N; i++ {
			d.Assert(f.Pred, fmt.Sprintf("u%d", i))
		}
	case "random":
		rng := rand.New(rand.NewSource(f.Seed))
		for i := 0; i < f.M; i++ {
			u, v := rng.Intn(f.N), rng.Intn(f.N)
			d.Assert(f.Pred, fmt.Sprintf("n%d", u), fmt.Sprintf("n%d", v))
		}
	case "flights":
		// Mirrors workload.FlightDB, asserting into this DB: random
		// flights plus a deterministic ap0@100 seed departure.
		rng := rand.New(rand.NewSource(f.Seed))
		deptimes := map[int]bool{}
		for i := 0; i < f.Airports; i++ {
			for k := 0; k < f.PerAirport; k++ {
				dt := rng.Intn(1300) + 100
				dur := rng.Intn(200) + 30
				dest := rng.Intn(f.Airports)
				if dest == i {
					dest = (i + 1) % f.Airports
				}
				d.Assert("flight",
					fmt.Sprintf("ap%d", i), fmt.Sprintf("%d", dt),
					fmt.Sprintf("ap%d", dest), fmt.Sprintf("%d", dt+dur))
				deptimes[dt] = true
			}
		}
		d.Assert("flight", "ap0", "100", "ap1", "145")
		deptimes[100] = true
		for dt := range deptimes {
			d.Assert("is_deptime", fmt.Sprintf("%d", dt))
		}
	default:
		t.Fatalf("unknown corpus fact kind %q", f.Kind)
	}
	db.Apply(d)
}

// measureStrategy times the pinned strategy on the case's query:
// best-of-N wall clock after one warmup, which is how the corpus's
// "measured best" is defined. Returns 0 and false if the strategy
// cannot run this case.
func measureStrategy(t *testing.T, db *DB, c corpusCase, s Strategy) (time.Duration, bool) {
	t.Helper()
	p, err := db.Prepare(c.Query, Options{Strategy: s})
	if err != nil {
		return 0, false
	}
	if _, err := p.Run(c.Args...); err != nil {
		return 0, false
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := p.Run(c.Args...); err != nil {
			t.Fatalf("%s: %v run: %v", c.Name, s, err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, true
}

func readCorpus(t *testing.T) []corpusCase {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "planchoice", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no plan-choice corpus found: %v", err)
	}
	var cases []corpusCase
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var c corpusCase
		if err := json.Unmarshal(raw, &c); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		cases = append(cases, c)
	}
	return cases
}

func TestPlanChoiceCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate; skipped in -short mode")
	}
	for _, c := range readCorpus(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			db := loadCorpusDB(t, c)
			auto, err := db.Prepare(c.Query, Options{})
			if err != nil {
				t.Fatalf("auto prepare: %v", err)
			}
			if auto.Plan().Pinned {
				t.Fatal("corpus case did not route through the optimizer")
			}
			// Let the runtime-feedback loop settle: a route whose estimate
			// proves wrong at run time re-optimizes at entry of a following
			// run, and the gate judges the settled choice — the optimizer
			// includes its feedback loop, not just the first cost model pass.
			for i := 0; i < 3; i++ {
				if _, err := auto.Run(c.Args...); err != nil {
					t.Fatalf("auto run: %v", err)
				}
			}
			pc := auto.Plan()

			measured := map[Strategy]time.Duration{}
			var best Strategy
			bestTime := time.Duration(1<<63 - 1)
			for _, s := range []Strategy{Chain, Seminaive, QSQNet} {
				d, ok := measureStrategy(t, db, c, s)
				if !ok {
					continue
				}
				measured[s] = d
				if d < bestTime {
					best, bestTime = s, d
				}
			}
			chosenTime, ok := measured[pc.Strategy]
			if !ok {
				t.Fatalf("optimizer chose %v, which did not measure", pc.Strategy)
			}
			t.Logf("chosen %v (%v); measured best %v (%v); all %v", pc.Strategy, chosenTime, best, bestTime, measured)
			if c.ExpectBest != "" && best.String() != c.ExpectBest {
				// The recorded expectation is informational: hardware can
				// reorder close alternatives, the gate below is the contract.
				t.Logf("note: measured best %v, corpus recorded %s", best, c.ExpectBest)
			}
			if limit := time.Duration(float64(bestTime)*planChoiceSlack) + planChoiceMinDelta; chosenTime > limit {
				t.Errorf("optimizer chose %v at %v; measured best is %v at %v (gate: %v)",
					pc.Strategy, chosenTime, best, bestTime, limit)
			}
		})
	}
}
