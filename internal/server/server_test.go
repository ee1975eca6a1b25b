package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"chainlog"
)

const familyProgram = `
	ancestor(X, Y) :- parent(X, Y).
	ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
	parent(bart, homer).
	parent(lisa, homer).
	parent(homer, abe).
	parent(abe, orville).
`

// newTestServer boots a Server over a fresh DB loaded with program,
// returning the server, its httptest listener and the DB.
func newTestServer(t *testing.T, program string, cfg Config) (*Server, *httptest.Server, *chainlog.DB) {
	t.Helper()
	db := chainlog.NewDB()
	if program != "" {
		if err := db.LoadProgram(program); err != nil {
			t.Fatal(err)
		}
	}
	cfg.DB = db
	cfg.Logf = t.Logf
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, db
}

// postJSON posts a JSON body and returns status plus decoded response
// body bytes.
func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func queryRows(t *testing.T, url string, req QueryRequest) (int, *QueryResponse) {
	t.Helper()
	status, body := postJSON(t, url+"/v1/query", req)
	var qr QueryResponse
	if status == http.StatusOK {
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatalf("bad response %s: %v", body, err)
		}
	}
	return status, &qr
}

func TestQuerySingleTemplate(t *testing.T) {
	_, ts, _ := newTestServer(t, familyProgram, Config{})
	status, qr := queryRows(t, ts.URL, QueryRequest{Template: "ancestor(?, Y)", Args: []string{"bart"}, Stats: true})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	want := [][]string{{"abe"}, {"homer"}, {"orville"}}
	if !reflect.DeepEqual(qr.Result.Rows, want) {
		t.Fatalf("rows %v, want %v", qr.Result.Rows, want)
	}
	if qr.Result.Stats == nil || qr.Result.Stats.Strategy != "chain" {
		t.Fatalf("stats missing or wrong: %+v", qr.Result.Stats)
	}
}

// A query reads: a constant the database has never seen, sent as a
// template's args or batch vector or written into a literal query body,
// answers empty and leaves the symbol table as it was, however many of
// them arrive.
func TestQueryUnknownArgsLeaveSymbolTable(t *testing.T) {
	_, ts, db := newTestServer(t, familyProgram, Config{})
	before := db.SymTab().Len()
	for i := 0; i < 1000; i++ {
		unknown := fmt.Sprintf("nosuch%d", i)
		req := QueryRequest{Template: "ancestor(?, Y)", Args: []string{unknown}}
		want := `{"result":{"vars":["Y"],"rows":[]}}`
		switch i % 4 {
		case 1:
			req = QueryRequest{Template: "ancestor(?, Y)", Batch: [][]string{{unknown}, {"bart"}}}
			want = `{"results":[{"vars":["Y"],"rows":[]},{"vars":["Y"],"rows":[["abe"],["homer"],["orville"]]}]}`
		case 2:
			req = QueryRequest{Query: fmt.Sprintf("ancestor(%s, Y)", unknown)}
		case 3:
			req = QueryRequest{Query: fmt.Sprintf("ancestor(bart, '%s')", unknown)}
			want = `{"result":{"vars":[],"rows":[]}}`
		}
		status, body := postJSON(t, ts.URL+"/v1/query", req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", unknown, status, body)
		}
		if got := strings.TrimSpace(string(body)); got != want {
			t.Fatalf("%s: body %s, want %s", unknown, got, want)
		}
	}
	if after := db.SymTab().Len(); after != before {
		t.Fatalf("symbol table grew from %d to %d names", before, after)
	}
}

func TestQueryOneShotLiteral(t *testing.T) {
	_, ts, db := newTestServer(t, familyProgram, Config{})
	status, qr := queryRows(t, ts.URL, QueryRequest{Query: "ancestor(lisa, Y)"})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	direct, err := db.Query("ancestor(lisa, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(qr.Result.Rows, direct.Rows) {
		t.Fatalf("served %v, direct %v", qr.Result.Rows, direct.Rows)
	}
}

func TestQueryBooleanResult(t *testing.T) {
	_, ts, _ := newTestServer(t, familyProgram, Config{})
	status, qr := queryRows(t, ts.URL, QueryRequest{Query: "ancestor(bart, abe)"})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if !qr.Result.True || len(qr.Result.Rows) != 0 {
		t.Fatalf("want true with no rows, got %+v", qr.Result)
	}
}

func TestQueryBatch(t *testing.T) {
	_, ts, db := newTestServer(t, familyProgram, Config{})
	status, qr := queryRows(t, ts.URL, QueryRequest{
		Template: "ancestor(?, Y)",
		Batch:    [][]string{{"bart"}, {"homer"}, {"bart"}},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(qr.Results) != 3 {
		t.Fatalf("want 3 results, got %d", len(qr.Results))
	}
	for i, bound := range []string{"bart", "homer", "bart"} {
		direct, err := db.Query(fmt.Sprintf("ancestor(%s, Y)", bound))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(qr.Results[i].Rows, direct.Rows) {
			t.Fatalf("batch[%d]: served %v, direct %v", i, qr.Results[i].Rows, direct.Rows)
		}
	}
}

func TestQueryMalformedBodies(t *testing.T) {
	_, ts, _ := newTestServer(t, familyProgram, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"not json", `{"template": `},
		{"unknown field", `{"template": "ancestor(?, Y)", "argz": ["bart"]}`},
		{"trailing garbage", `{"query": "ancestor(bart, Y)"} extra`},
		{"neither query nor template", `{}`},
		{"both query and template", `{"query": "ancestor(bart, Y)", "template": "ancestor(?, Y)"}`},
		{"args with query", `{"query": "ancestor(bart, Y)", "args": ["x"]}`},
		{"args and batch", `{"template": "ancestor(?, Y)", "args": ["bart"], "batch": [["homer"]]}`},
		{"bad strategy", `{"template": "ancestor(?, Y)", "args": ["bart"], "strategy": "warp"}`},
		{"unparseable query", `{"query": "ancestor(bart"}`},
		{"wrong arg count", `{"template": "ancestor(?, Y)", "args": ["bart", "homer"]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}
}

// TestMutationQueryInterleaving drives a mutation/query schedule through
// HTTP and mirrors every step on a second DB evaluated directly; the
// served rows must match direct evaluation after every mutation.
func TestMutationQueryInterleaving(t *testing.T) {
	rules := `
		ancestor(X, Y) :- parent(X, Y).
		ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
	`
	_, ts, _ := newTestServer(t, rules, Config{})
	mirror := chainlog.NewDB()
	if err := mirror.LoadProgram(rules); err != nil {
		t.Fatal(err)
	}

	check := func(step string) {
		t.Helper()
		for _, q := range []string{"ancestor(bart, Y)", "ancestor(X, abe)", "ancestor(bart, abe)"} {
			status, qr := queryRows(t, ts.URL, QueryRequest{Query: q})
			if status != http.StatusOK {
				t.Fatalf("%s: %s: status %d", step, q, status)
			}
			direct, err := mirror.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if direct.Rows == nil {
				// Boolean queries have no rows; the wire form normalizes
				// nil to an empty array.
				direct.Rows = [][]string{}
			}
			if !reflect.DeepEqual(qr.Result.Rows, direct.Rows) || qr.Result.True != direct.True {
				t.Fatalf("%s: %s: served %v/%v, direct %v/%v",
					step, q, qr.Result.Rows, qr.Result.True, direct.Rows, direct.True)
			}
		}
	}

	// Assert.
	facts := []FactJSON{{Pred: "parent", Args: []string{"bart", "homer"}}, {Pred: "parent", Args: []string{"homer", "abe"}}}
	status, body := postJSON(t, ts.URL+"/v1/assert", MutationRequest{Facts: facts})
	if status != http.StatusOK {
		t.Fatalf("assert: status %d: %s", status, body)
	}
	var mr MutationResponse
	if err := json.Unmarshal(body, &mr); err != nil || mr.Asserted != 2 {
		t.Fatalf("assert: %s (err %v)", body, err)
	}
	mirror.Assert("parent", "bart", "homer")
	mirror.Assert("parent", "homer", "abe")
	check("after assert")

	// Retract.
	status, body = postJSON(t, ts.URL+"/v1/retract", MutationRequest{Facts: []FactJSON{{Pred: "parent", Args: []string{"homer", "abe"}}}})
	if status != http.StatusOK {
		t.Fatalf("retract: status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &mr); err != nil || mr.Retracted != 1 {
		t.Fatalf("retract: %s (err %v)", body, err)
	}
	mirror.Retract("parent", "homer", "abe")
	check("after retract")

	// Ordered delta: re-assert, add a branch, retract the branch — nets
	// to just the re-assert.
	ops := []DeltaOp{
		{Op: "assert", Pred: "parent", Args: []string{"homer", "abe"}},
		{Op: "assert", Pred: "parent", Args: []string{"abe", "zeke"}},
		{Op: "retract", Pred: "parent", Args: []string{"abe", "zeke"}},
	}
	status, body = postJSON(t, ts.URL+"/v1/delta", DeltaRequest{Ops: ops})
	if status != http.StatusOK {
		t.Fatalf("delta: status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &mr); err != nil || mr.Asserted != 1 || mr.Retracted != 0 {
		t.Fatalf("delta: %s (err %v), want the net single assert", body, err)
	}
	d := &chainlog.Delta{}
	d.Assert("parent", "homer", "abe").Assert("parent", "abe", "zeke").Retract("parent", "abe", "zeke")
	mirror.Apply(d)
	check("after delta")
}

// TestWrongArityWriteIsRefused sends writes holding a fact of the wrong
// arity: each is a 400 naming the op, the store and epoch stay as they
// were, and the commit lock is free for the valid write after them.
func TestWrongArityWriteIsRefused(t *testing.T) {
	_, ts, db := newTestServer(t, familyProgram, Config{})
	epoch := db.FactEpoch()
	for _, tc := range []struct {
		path, want string
		body       any
	}{
		{"/v1/assert", "op 1 asserts parent with 1 argument(s), but parent has arity 2",
			MutationRequest{Facts: []FactJSON{{Pred: "parent", Args: []string{"x", "y"}}, {Pred: "parent", Args: []string{"z"}}}}},
		{"/v1/delta", "op 2 asserts parent with 1 argument(s), but parent has arity 2",
			DeltaRequest{Ops: []DeltaOp{
				{Op: "assert", Pred: "parent", Args: []string{"x", "y"}},
				{Op: "retract", Pred: "parent", Args: []string{"bart", "homer"}},
				{Op: "assert", Pred: "parent", Args: []string{"z"}},
			}}},
	} {
		status, out := postJSON(t, ts.URL+tc.path, tc.body)
		if status != http.StatusBadRequest || !strings.Contains(string(out), tc.want) {
			t.Fatalf("%s: status %d: %s; want a 400 saying %q", tc.path, status, out, tc.want)
		}
		if db.FactEpoch() != epoch {
			t.Fatalf("%s: epoch moved %d -> %d", tc.path, epoch, db.FactEpoch())
		}
		ans, err := db.Query("ancestor(X, Y)")
		if err != nil || len(ans.Rows) != 9 {
			t.Fatalf("%s: the store changed: %v, %v", tc.path, ans, err)
		}
	}
	done := make(chan int)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/assert", "application/json", strings.NewReader(`{"facts":[{"pred":"parent","args":["x","y"]}]}`))
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	select {
	case status := <-done:
		if status != http.StatusOK {
			t.Fatalf("valid write after the refused ones: status %d", status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the valid write hung: the commit lock was not released")
	}
	if db.FactEpoch() != epoch+1 {
		t.Fatalf("epoch after the valid write = %d, want %d", db.FactEpoch(), epoch+1)
	}
}

// TestPlanCacheSurvivesFactChurn pins the serving acceptance criterion:
// template queries across assert/retract traffic reuse one compiled
// plan — compiles stays at 1 while hits grow — and /metrics reports it.
func TestPlanCacheSurvivesFactChurn(t *testing.T) {
	s, ts, _ := newTestServer(t, familyProgram, Config{})
	run := func(want [][]string) {
		t.Helper()
		status, qr := queryRows(t, ts.URL, QueryRequest{Template: "ancestor(?, Y)", Args: []string{"bart"}})
		if status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
		if !reflect.DeepEqual(qr.Result.Rows, want) {
			t.Fatalf("rows %v, want %v", qr.Result.Rows, want)
		}
	}
	run([][]string{{"abe"}, {"homer"}, {"orville"}})
	postJSON(t, ts.URL+"/v1/assert", MutationRequest{Facts: []FactJSON{{Pred: "parent", Args: []string{"orville", "eve"}}}})
	run([][]string{{"abe"}, {"eve"}, {"homer"}, {"orville"}})
	postJSON(t, ts.URL+"/v1/retract", MutationRequest{Facts: []FactJSON{{Pred: "parent", Args: []string{"orville", "eve"}}}})
	run([][]string{{"abe"}, {"homer"}, {"orville"}})

	if got := s.db.PlanCacheStats(); got.Misses != 1 || got.Hits < 2 {
		t.Fatalf("plan cache across fact churn: %+v, want 1 miss (one compile) and >= 2 hits", got)
	}

	// One request per non-200 route through the request counter: a body
	// the handler rejects, and one the limiter turns away.
	if status, _ := postJSON(t, ts.URL+"/v1/query", QueryRequest{}); status != http.StatusBadRequest {
		t.Fatalf("empty query body: status %d, want 400", status)
	}
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	if status, _ := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "ancestor(bart, Y)"}); status != http.StatusTooManyRequests {
		t.Fatalf("saturated server: status %d, want 429", status)
	}
	for i := 0; i < cap(s.sem); i++ {
		<-s.sem
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"chainlogd_plan_compiles_total 1",
		"chainlogd_plan_cache_hits_total 2",
		`chainlogd_requests_total{endpoint="query",code="200"} 3`,
		`chainlogd_requests_total{endpoint="query",code="400"} 1`,
		`chainlogd_requests_total{endpoint="query",code="429"} 1`,
		`chainlogd_requests_total{endpoint="assert",code="200"} 1`,
		"chainlogd_request_seconds_bucket",
		"chainlogd_in_flight_requests",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestQueryResponseFraming pins how a /v1/query reply is framed: whatever
// its size, it carries a Content-Length equal to the body and is not
// chunked. The wide answer is what net/http would chunk if the handler
// streamed it.
func TestQueryResponseFraming(t *testing.T) {
	var prog strings.Builder
	prog.WriteString("tc(X, Y) :- e(X, Y).\ntc(X, Z) :- e(X, Y), tc(Y, Z).\n")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&prog, "e(n%d, n%d).\n", i, i+1)
	}
	_, ts, _ := newTestServer(t, prog.String(), Config{})
	for name, req := range map[string]QueryRequest{
		"wide":    {Template: "tc(?, Y)", Args: []string{"n0"}, Stats: true},
		"small":   {Query: "tc(n1998, Y)"},
		"boolean": {Query: "tc(n0, n7)"},
		"batch":   {Template: "tc(?, Y)", Batch: [][]string{{"n0"}, {"n1999"}}},
	} {
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v", name, resp.StatusCode, err)
		}
		if got := resp.Header.Get("Content-Length"); got != fmt.Sprint(len(body)) {
			t.Errorf("%s: Content-Length %q, body is %d bytes", name, got, len(body))
		}
		if len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Transfer-Encoding %v, want none", name, resp.TransferEncoding)
		}
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Errorf("%s: body does not decode: %v", name, err)
		}
	}
}

// TestSingleFlightColdPrepare pins the thundering-herd behavior: many
// concurrent requests for one cold template must compile exactly once.
func TestSingleFlightColdPrepare(t *testing.T) {
	s, ts, _ := newTestServer(t, familyProgram, Config{MaxInFlight: 64})
	const N = 32
	var wg sync.WaitGroup
	errs := make([]error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _ := postJSON(t, ts.URL+"/v1/query", QueryRequest{Template: "ancestor(?, Y)", Args: []string{"bart"}})
			if status != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", status)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := s.db.PlanCacheStats().Misses; got != 1 {
		t.Fatalf("thundering herd compiled %d times, want 1", got)
	}
}

// TestLimiter429 fills the in-flight semaphore directly and verifies the
// next request is turned away with 429 + Retry-After, and that draining
// the slot restores service.
func TestLimiter429(t *testing.T) {
	s, ts, _ := newTestServer(t, familyProgram, Config{MaxInFlight: 2, RetryAfter: 7 * time.Second})
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"query": "ancestor(bart, Y)"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q, want \"7\"", got)
	}
	if s.rejected.Value() == 0 {
		t.Fatal("rejection counter did not move")
	}
	<-s.sem
	<-s.sem
	status, _ := queryRows(t, ts.URL, QueryRequest{Query: "ancestor(bart, Y)"})
	if status != http.StatusOK {
		t.Fatalf("post-drain status %d, want 200", status)
	}
}

// TestMaxNodesAdmission verifies the admission cap turns an oversized
// traversal into a 422 instead of letting it run.
func TestMaxNodesAdmission(t *testing.T) {
	_, ts, _ := newTestServer(t, familyProgram, Config{MaxNodes: 2})
	status, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{Template: "ancestor(?, Y)", Args: []string{"bart"}})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", status, body)
	}
	// A request asking for more than the cap is clamped, not honored.
	status, body = postJSON(t, ts.URL+"/v1/query", QueryRequest{Template: "ancestor(?, Y)", Args: []string{"bart"}, MaxNodes: 1 << 30})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("clamped status %d, want 422: %s", status, body)
	}
}

func TestHealthzAndDraining(t *testing.T) {
	s, ts, _ := newTestServer(t, familyProgram, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d, want 200", resp.StatusCode)
	}
	s.SetDraining(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("draining healthz %d %s, want 503 draining", resp.StatusCode, body)
	}
}

func TestExplain(t *testing.T) {
	_, ts, _ := newTestServer(t, familyProgram, Config{})
	resp, err := http.Get(ts.URL + "/v1/explain?query=" + "ancestor(bart,%20Y)")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "equation system") {
		t.Fatalf("explain %d %q", resp.StatusCode, body)
	}

	// A template that is prepared and served is explained, chain route
	// or not: the two-sided nonlinear program of testdata/planchoice's
	// qsq-bound-nonchain case has none.
	_, ts, _ = newTestServer(t, "p(X, Y) :- e(X, Y).\np(X, W) :- a(X, Y), p(Y, Z), b(Z, W).\np(X, Z) :- p(X, Y), p(Y, Z).\ne(n1, n2).", Config{})
	resp, err = http.Get(ts.URL + "/v1/explain?query=p(n1,%20Y)")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "chosen: ") {
		t.Fatalf("explain of a nonlinear program: %d %q", resp.StatusCode, body)
	}
}

// The paper's baselines are not strategies: both endpoints that take a
// strategy name answer 400 and say where the baselines are run.
func TestBaselineStrategyNamesRejected(t *testing.T) {
	_, ts, _ := newTestServer(t, familyProgram, Config{})
	status, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{
		Template: "ancestor(?, Y)", Args: []string{"bart"}, Strategy: "hunt",
	})
	if status != http.StatusBadRequest || !strings.Contains(string(body), "cmd/benchtables") {
		t.Fatalf("query with strategy hunt: %d %s", status, body)
	}
	resp, err := http.Get(ts.URL + "/v1/explain?query=ancestor(bart,%20Y)&strategy=counting")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "cmd/benchtables") {
		t.Fatalf("explain with strategy counting: %d %s", resp.StatusCode, body)
	}
}

// TestEmptyBatchRejected pins the empty-but-present batch body to a 400
// instead of a silent empty success.
func TestEmptyBatchRejected(t *testing.T) {
	_, ts, _ := newTestServer(t, familyProgram, Config{})
	status, body := postJSON(t, ts.URL+"/v1/query", map[string]any{
		"template": "ancestor(?, Y)", "args": []string{"bart"}, "batch": [][]string{},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400: %s", status, body)
	}
}

// TestServedRunRecordsItsWorkOnce pins what a served run feeds the
// optimizer: a single run folds its FactsConsulted into the plan's
// observed-work average once (not once in the library and again in the
// handler), and a batch folds the mean of its bindings, the unit the
// estimate it is compared with is in — not the batch's total.
func TestServedRunRecordsItsWorkOnce(t *testing.T) {
	s, ts, db := newTestServer(t, familyProgram, Config{})
	const template = "ancestor(?, Y)"
	facts := func(req QueryRequest) float64 {
		t.Helper()
		req.Template, req.Stats = template, true
		status, qr := queryRows(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
		if req.Batch != nil {
			return float64(qr.Results[0].Stats.FactsConsulted / int64(len(req.Batch)))
		}
		return float64(qr.Result.Stats.FactsConsulted)
	}
	observed := func() float64 {
		t.Helper()
		p, err := db.PrepareCached(nil, template, s.options(chainlog.Auto, 0))
		if err != nil {
			t.Fatal(err)
		}
		return p.Plan().ObservedWork
	}
	f1, f2 := facts(QueryRequest{Args: []string{"bart"}}), facts(QueryRequest{Args: []string{"abe"}})
	if f1 == f2 {
		t.Fatalf("both runs consult %v facts: one fold and two cannot be told apart", f1)
	}
	want := 0.75*f1 + 0.25*f2
	if got := observed(); got != want {
		t.Fatalf("after runs of %v and %v facts the average is %v, want %v", f1, f2, got, want)
	}
	mean := facts(QueryRequest{Batch: [][]string{{"bart"}, {"lisa"}, {"homer"}, {"abe"}}})
	if got, want := observed(), 0.75*want+0.25*mean; got != want {
		t.Fatalf("after a batch averaging %v facts a binding the average is %v, want %v", mean, got, want)
	}
}

// planCacheBound is chainlog's maxCachedPlans.
const planCacheBound = 1024

// TestRegistryBounded pins the plan cache's memory bound from the
// outside: a client cycling max_nodes values (each a distinct plan key)
// cannot grow it past the bound, on template bodies or on one-shot
// "query" bodies.
func TestRegistryBounded(t *testing.T) {
	for name, req := range map[string]QueryRequest{
		"template": {Template: "ancestor(?, Y)", Args: []string{"bart"}},
		"query":    {Query: "ancestor(bart, Y)"},
	} {
		t.Run(name, func(t *testing.T) {
			s, ts, _ := newTestServer(t, familyProgram, Config{MaxNodes: -1})
			for i := 0; i < planCacheBound+50; i++ {
				req.MaxNodes = i + 1000
				status, body := postJSON(t, ts.URL+"/v1/query", req)
				if status != http.StatusOK {
					t.Fatalf("request %d: status %d: %s", i, status, body)
				}
			}
			if got := s.db.PlanCacheStats().Size; got > planCacheBound {
				t.Fatalf("plan cache grew to %d entries, bound is %d", got, planCacheBound)
			}
		})
	}
}
