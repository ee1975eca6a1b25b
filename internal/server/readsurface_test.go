package server

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"chainlog"
)

// readTemplate is a query shape a read-surface schedule draws, with the
// strategies it may be pinned to ("" is the optimizer's choice). A
// Section 4 chain run interns its start term t(c̄) by design, so shapes
// that would take that route are pinned off it.
type readTemplate struct {
	text       string
	strategies []string
}

// Every read surface — the library's queries, batches, Explain and
// prepared runs, and /v1/query in each body form and /v1/explain on the
// server — leaves the symbol table as it found it, whatever mix of known
// and unknown constants it is sent, on programs whose routes are the
// direct chain traversal, a bottom-up fixpoint and the QSQ net.
func TestReadSurfacesLeaveSymbolTable(t *testing.T) {
	programs := []struct {
		name, src string
		known     []string
		templates []readTemplate
	}{
		{
			name:  "chain",
			src:   familyProgram,
			known: []string{"bart", "lisa", "homer", "abe", "orville"},
			templates: []readTemplate{
				{"ancestor(?, Y)", []string{"", "chain", "seminaive", "qsqnet"}},
				{"ancestor(X, ?)", []string{"", "chain", "seminaive", "qsqnet"}},
				{"ancestor(?, ?)", []string{"seminaive", "qsqnet"}},
			},
		},
		{
			name: "nonlinear",
			src: `
				tcn(X, Y) :- e(X, Y).
				tcn(X, Z) :- tcn(X, Y), tcn(Y, Z).
				e(n1, n2). e(n2, n3). e(n3, n1). e(n3, n4).
			`,
			known: []string{"n1", "n2", "n3", "n4"},
			templates: []readTemplate{
				{"tcn(?, Y)", []string{"", "seminaive", "qsqnet"}},
				{"tcn(X, ?)", []string{"", "seminaive", "qsqnet"}},
				{"tcn(?, ?)", []string{"", "seminaive", "qsqnet"}},
			},
		},
	}
	for _, prog := range programs {
		t.Run(prog.name, func(t *testing.T) {
			_, ts, db := newTestServer(t, prog.src, Config{})
			rng := rand.New(rand.NewSource(1))
			unknown := 0
			constant := func() string {
				if rng.Intn(2) == 0 {
					return prog.known[rng.Intn(len(prog.known))]
				}
				unknown++
				return fmt.Sprintf("nosuch%d", unknown)
			}
			args := func(n int) []string {
				out := make([]string, n)
				for i := range out {
					out[i] = constant()
				}
				return out
			}
			literal := func(tmpl string) string {
				for strings.Contains(tmpl, "?") {
					tmpl = strings.Replace(tmpl, "?", constant(), 1)
				}
				return tmpl
			}
			explain := func(query, strategy string) {
				t.Helper()
				resp, err := http.Get(ts.URL + "/v1/explain?query=" + url.QueryEscape(query) + "&strategy=" + strategy)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if body, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusOK {
					t.Fatalf("/v1/explain %s: status %d: %s", query, resp.StatusCode, body)
				}
			}
			post := func(req QueryRequest) {
				t.Helper()
				if status, body := postJSON(t, ts.URL+"/v1/query", req); status != http.StatusOK {
					t.Fatalf("/v1/query %+v: status %d: %s", req, status, body)
				}
			}

			before := db.SymTab().Len()
			for step := 0; step < 300; step++ {
				tmpl := prog.templates[rng.Intn(len(prog.templates))]
				name := tmpl.strategies[rng.Intn(len(tmpl.strategies))]
				strategy, err := chainlog.ParseStrategy(name)
				if err != nil {
					t.Fatal(err)
				}
				opts := chainlog.Options{Strategy: strategy}
				holes := strings.Count(tmpl.text, "?")
				var surface string
				switch rng.Intn(11) {
				case 0:
					surface = "Query"
					if name == "" {
						_, err = db.Query(literal(tmpl.text))
					} else {
						_, err = db.QueryOpts(literal(tmpl.text), opts)
					}
				case 1:
					surface = "QueryBatch"
					_, err = db.QueryBatchOpts([]string{literal(tmpl.text), literal(tmpl.text), literal(tmpl.text)}, opts)
				case 2:
					surface = "Explain"
					if name == "" {
						_, err = db.Explain(literal(tmpl.text))
					} else {
						_, err = db.ExplainOpts(literal(tmpl.text), opts)
					}
				case 3, 4:
					surface = "Prepare"
					var p *chainlog.Prepared
					if p, err = db.Prepare(tmpl.text, opts); err == nil {
						if rng.Intn(2) == 0 {
							surface = "Prepare+Run"
							_, err = p.Run(args(holes)...)
						} else {
							surface = "Prepare+RunBatch"
							_, err = p.RunBatch([][]string{args(holes), args(holes)})
						}
					}
				case 5:
					surface = "/v1/query template+args"
					post(QueryRequest{Template: tmpl.text, Args: args(holes), Strategy: name})
				case 6:
					surface = "/v1/query template+batch"
					post(QueryRequest{Template: tmpl.text, Batch: [][]string{args(holes), args(holes)}, Strategy: name})
				case 7, 8:
					// A literal body; on a fully bound shape, a boolean one.
					surface = "/v1/query literal"
					post(QueryRequest{Query: literal(tmpl.text), Strategy: name})
				default:
					surface = "/v1/explain"
					explain(literal(tmpl.text), name)
				}
				if err != nil {
					t.Fatalf("step %d, %s of %s (%q): %v", step, surface, tmpl.text, name, err)
				}
				if after := db.SymTab().Len(); after != before {
					t.Fatalf("step %d, %s of %s (%q): the symbol table grew from %d to %d names", step, surface, tmpl.text, name, before, after)
				}
			}
		})
	}
}
