package server

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"chainlog"
)

// chainServer boots a server over tc (transitive closure) on an
// edge-chain of n nodes — a traversal big enough that a short deadline
// fires mid-query.
func chainServer(t *testing.T, n int, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	db := chainlog.NewDB()
	if err := db.LoadProgram(`
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- e(X, Y), tc(Y, Z).
	`); err != nil {
		t.Fatal(err)
	}
	d := &chainlog.Delta{}
	for i := 0; i < n-1; i++ {
		d.Assert("e", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
	}
	if res, err := db.Apply(d); err != nil || res.Asserted != n-1 {
		t.Fatalf("seeded %d facts (err %v), want %d", res.Asserted, err, n-1)
	}
	cfg.DB = db
	cfg.Logf = t.Logf
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestDeadlineCancelsMidTraversal is the acceptance criterion: a
// deliberately huge traversal under a short request deadline returns 504
// well before sequential completion time, and the serving path stays
// fully usable afterwards.
func TestDeadlineCancelsMidTraversal(t *testing.T) {
	const n = 1 << 17
	_, ts := chainServer(t, n, Config{MaxNodes: -1, MaxTimeout: time.Minute})
	req := QueryRequest{Template: "tc(?, Y)", Args: []string{"n0"}, TimeoutMS: 30_000}

	// Baseline: the full traversal, timed end to end over HTTP.
	t0 := time.Now()
	status, qr := queryRows(t, ts.URL, req)
	fullDur := time.Since(t0)
	if status != http.StatusOK {
		t.Fatalf("full run: status %d", status)
	}
	if len(qr.Result.Rows) != n-1 {
		t.Fatalf("full run: %d rows, want %d", len(qr.Result.Rows), n-1)
	}

	// Short deadline: 504, and in a fraction of the full duration.
	short := req
	short.TimeoutMS = 2
	t0 = time.Now()
	status, _ = queryRows(t, ts.URL, short)
	shortDur := time.Since(t0)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("short-deadline status %d, want 504", status)
	}
	if shortDur >= fullDur/2 {
		t.Fatalf("short-deadline run took %v, not well before the full %v", shortDur, fullDur)
	}

	// The pooled evaluator state must be reusable: the same plan still
	// completes under a generous deadline.
	status, qr = queryRows(t, ts.URL, req)
	if status != http.StatusOK || len(qr.Result.Rows) != n-1 {
		t.Fatalf("post-timeout run: status %d, %d rows", status, len(qr.Result.Rows))
	}
}

// TestHugeTimeoutClamps sends timeouts that overflow a time.Duration
// once counted in nanoseconds: each clamps to MaxTimeout and answers.
func TestHugeTimeoutClamps(t *testing.T) {
	_, ts := chainServer(t, 16, Config{MaxNodes: -1, MaxTimeout: time.Minute})
	for _, ms := range []int{1e13, math.MaxInt} {
		status, qr := queryRows(t, ts.URL, QueryRequest{Template: "tc(?, Y)", Args: []string{"n0"}, TimeoutMS: ms})
		if status != http.StatusOK {
			t.Errorf("timeout_ms %d: status %d, want 200", ms, status)
		} else if len(qr.Result.Rows) != 15 {
			t.Errorf("timeout_ms %d: %d rows, want 15", ms, len(qr.Result.Rows))
		}
	}
}

// TestConcurrentQueryDeltaTraffic hammers the server with concurrent
// template queries, batch queries and delta mutations (run under -race
// in CI). Every answer must be one of the two valid snapshots: the base
// chain, or the base chain plus the churning edge.
func TestConcurrentQueryDeltaTraffic(t *testing.T) {
	_, ts, _ := newTestServer(t, familyProgram, Config{MaxInFlight: 128})
	base := [][]string{{"abe"}, {"homer"}, {"orville"}}
	churned := [][]string{{"abe"}, {"eve"}, {"homer"}, {"orville"}}

	const (
		queryWorkers = 4
		iters        = 60
	)
	var wg sync.WaitGroup
	errc := make(chan error, queryWorkers+2)

	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var rows [][]string
				if w%2 == 0 {
					status, qr := queryRows(t, ts.URL, QueryRequest{Template: "ancestor(?, Y)", Args: []string{"bart"}})
					if status != http.StatusOK {
						errc <- fmt.Errorf("query status %d", status)
						return
					}
					rows = qr.Result.Rows
				} else {
					status, qr := queryRows(t, ts.URL, QueryRequest{Template: "ancestor(?, Y)", Batch: [][]string{{"bart"}, {"lisa"}}})
					if status != http.StatusOK {
						errc <- fmt.Errorf("batch status %d", status)
						return
					}
					rows = qr.Results[0].Rows
				}
				if !reflect.DeepEqual(rows, base) && !reflect.DeepEqual(rows, churned) {
					errc <- fmt.Errorf("rows %v is neither valid snapshot", rows)
					return
				}
			}
		}(w)
	}

	// Mutator: churn parent(orville, eve) through ordered deltas.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			op := "assert"
			if i%2 == 1 {
				op = "retract"
			}
			status, body := postJSON(t, ts.URL+"/v1/delta", DeltaRequest{Ops: []DeltaOp{{Op: op, Pred: "parent", Args: []string{"orville", "eve"}}}})
			if status != http.StatusOK {
				errc <- fmt.Errorf("delta status %d: %s", status, body)
				return
			}
		}
	}()

	// Scraper: /metrics must stay consistent under load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				errc <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("metrics status %d", resp.StatusCode)
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestBatchDeadline exercises the deadline through the batch route.
func TestBatchDeadline(t *testing.T) {
	const n = 1 << 16
	_, ts := chainServer(t, n, Config{MaxNodes: -1, MaxTimeout: time.Minute})
	status, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{
		Template:  "tc(?, Y)",
		Batch:     [][]string{{"n0"}, {"n1"}},
		TimeoutMS: 2,
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("batch short-deadline status %d, want 504: %s", status, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Fatalf("error body should name the deadline: %s", body)
	}
}

// TestDeadlineCancelsBottomUpStrategy pins that client-selectable
// non-chain strategies honor the request deadline too: the seminaive
// fixpoint (which derives the full O(n²) transitive closure) must
// return 504 promptly instead of running to completion.
func TestDeadlineCancelsBottomUpStrategy(t *testing.T) {
	const n = 1200
	_, ts := chainServer(t, n, Config{MaxNodes: -1, MaxTimeout: time.Minute})
	t0 := time.Now()
	status, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{
		Query: "tc(n0, Y)", Strategy: "seminaive", TimeoutMS: 50,
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("seminaive short-deadline status %d, want 504: %.120s", status, body)
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("504 took %v; the fixpoint was not canceled promptly", elapsed)
	}
}
