package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"chainlog"

	"chainlog/internal/wal"
)

// maxBodyBytes bounds request bodies; a query or delta body past 8 MiB
// is a client bug, not a workload.
const maxBodyBytes = 8 << 20

// QueryRequest is the body of POST /v1/query. Exactly one of Query
// (a concrete one-shot literal) or Template (a '?'-parameterized
// prepared-plan template) must be set; Template runs either Args (one
// vector) or Batch (many vectors, evaluated through the shared-traversal
// batch route).
type QueryRequest struct {
	Query    string     `json:"query,omitempty"`
	Template string     `json:"template,omitempty"`
	Args     []string   `json:"args,omitempty"`
	Batch    [][]string `json:"batch,omitempty"`

	// Strategy selects the evaluation method by name. Empty or "auto"
	// (the default) lets the cost-based optimizer choose and re-optimize
	// as facts churn; any other chainlog.Strategies() name ("chain",
	// "seminaive", "magic", "qsqnet", "naive") pins it, bypassing the
	// optimizer. Anything else is a 400.
	Strategy string `json:"strategy,omitempty"`
	// TimeoutMS is the per-request evaluation deadline, clamped to the
	// server's MaxTimeout; 0 inherits DefaultTimeout.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// MaxNodes caps the interpretation graph, clamped to the server's
	// admission cap; 0 inherits the cap.
	MaxNodes int `json:"max_nodes,omitempty"`
	// Stats includes evaluation statistics in the response.
	Stats bool `json:"stats,omitempty"`
}

// QueryResult is one evaluated query.
type QueryResult struct {
	Vars []string   `json:"vars"`
	Rows [][]string `json:"rows"`
	// True reports, for fully bound queries (no free variables), whether
	// the fact holds.
	True  bool       `json:"true,omitempty"`
	Stats *StatsJSON `json:"stats,omitempty"`
}

// QueryResponse is the body of a successful POST /v1/query: Result for
// single evaluations, Results (in input order) for batch bodies.
type QueryResponse struct {
	Result  *QueryResult  `json:"result,omitempty"`
	Results []QueryResult `json:"results,omitempty"`
}

// StatsJSON mirrors chainlog.Stats for the wire.
type StatsJSON struct {
	Strategy       string `json:"strategy"`
	Iterations     int    `json:"iterations"`
	Nodes          int    `json:"nodes"`
	Expansions     int    `json:"expansions"`
	FactsConsulted int64  `json:"facts_consulted"`
	Lookups        int64  `json:"lookups"`
	Converged      bool   `json:"converged"`
}

// FactJSON is one ground fact on the wire.
type FactJSON struct {
	Pred string   `json:"pred"`
	Args []string `json:"args"`
}

// MutationRequest is the body of POST /v1/assert and POST /v1/retract.
type MutationRequest struct {
	Facts []FactJSON `json:"facts"`
}

// DeltaOp is one operation of an ordered POST /v1/delta batch.
type DeltaOp struct {
	// Op is "assert" or "retract".
	Op   string   `json:"op"`
	Pred string   `json:"pred"`
	Args []string `json:"args"`
}

// DeltaRequest is the body of POST /v1/delta.
type DeltaRequest struct {
	Ops []DeltaOp `json:"ops"`
}

// MutationResponse reports what a mutation endpoint changed (no-ops
// excluded, matching ApplyResult) and the fact epoch the database
// reached — the token a client sends back as X-Chainlog-Min-Epoch to
// get read-your-writes on a replica.
type MutationResponse struct {
	Asserted  int    `json:"asserted"`
	Retracted int    `json:"retracted"`
	Epoch     uint64 `json:"epoch"`
}

// errorResponse is every non-2xx JSON body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeBody strictly decodes a JSON body into v: unknown fields and
// trailing garbage are client errors.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "malformed body: %v", err)
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "malformed body: trailing data after JSON value")
		return false
	}
	return true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	switch {
	case req.Query == "" && req.Template == "":
		writeError(w, http.StatusBadRequest, "one of \"query\" or \"template\" is required")
		return
	case req.Query != "" && req.Template != "":
		writeError(w, http.StatusBadRequest, "\"query\" and \"template\" are mutually exclusive")
		return
	case req.Query != "" && (req.Args != nil || req.Batch != nil):
		writeError(w, http.StatusBadRequest, "\"args\"/\"batch\" require \"template\"")
		return
	case req.Args != nil && req.Batch != nil:
		writeError(w, http.StatusBadRequest, "\"args\" and \"batch\" are mutually exclusive")
		return
	case req.Batch != nil && len(req.Batch) == 0:
		writeError(w, http.StatusBadRequest, "\"batch\" must name at least one binding vector")
		return
	}
	strategy, err := chainlog.ParseStrategy(req.Strategy)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts := s.options(strategy, req.MaxNodes)

	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	// Read-your-writes: X-Chainlog-Min-Epoch makes the query wait (within
	// its deadline) until this node has applied at least that epoch, then
	// the response's X-Chainlog-Epoch proves what the evaluation saw.
	if hdr := r.Header.Get("X-Chainlog-Min-Epoch"); hdr != "" {
		min, err := strconv.ParseUint(hdr, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "malformed X-Chainlog-Min-Epoch %q: %v", hdr, err)
			return
		}
		if err := s.awaitEpoch(ctx, min); err != nil {
			writeError(w, httpStatusFor(err), "min epoch %d not reached (at %d): %v", min, s.db.FactEpoch(), err)
			return
		}
	}
	// The epoch is read before evaluation: the data the query sees is at
	// least this fresh, so the stamp is a sound read-your-writes token.
	w.Header().Set("X-Chainlog-Epoch", strconv.FormatUint(s.db.FactEpoch(), 10))

	if req.Query != "" {
		// One-shot literal: the DB's plan cache templateizes it, so it
		// shares the plan of the template of its shape.
		ans, err := s.db.QueryOptsCtx(ctx, req.Query, opts)
		if err != nil {
			writeError(w, httpStatusFor(err), "%v", err)
			return
		}
		writeQueryResponse(w, &QueryResponse{Result: toResult(ans, req.Stats)})
		return
	}

	p, err := s.db.PrepareCached(ctx, req.Template, opts)
	if err != nil {
		writeError(w, httpStatusFor(err), "%v", err)
		return
	}
	if req.Batch != nil {
		answers, err := p.RunBatchCtx(ctx, req.Batch)
		if err != nil {
			writeError(w, httpStatusFor(err), "%v", err)
			return
		}
		results := make([]QueryResult, len(answers))
		for i, ans := range answers {
			results[i] = *toResult(ans, req.Stats)
		}
		writeQueryResponse(w, &QueryResponse{Results: results})
		return
	}
	ans, err := p.RunCtx(ctx, req.Args...)
	if err != nil {
		writeError(w, httpStatusFor(err), "%v", err)
		return
	}
	writeQueryResponse(w, &QueryResponse{Result: toResult(ans, req.Stats)})
}

func toResult(ans *chainlog.Answer, withStats bool) *QueryResult {
	res := &QueryResult{Vars: ans.Vars, Rows: ans.Rows, True: ans.True}
	if res.Vars == nil {
		res.Vars = []string{}
	}
	if res.Rows == nil {
		res.Rows = [][]string{}
	}
	if withStats {
		res.Stats = &StatsJSON{
			Strategy:       ans.Stats.Strategy.String(),
			Iterations:     ans.Stats.Iterations,
			Nodes:          ans.Stats.Nodes,
			Expansions:     ans.Stats.Expansions,
			FactsConsulted: ans.Stats.FactsConsulted,
			Lookups:        ans.Stats.Lookups,
			Converged:      ans.Stats.Converged,
		}
	}
	return res
}

// checkFacts validates a mutation body's shape.
func checkFacts(w http.ResponseWriter, facts []FactJSON) bool {
	if len(facts) == 0 {
		writeError(w, http.StatusBadRequest, "\"facts\" must name at least one fact")
		return false
	}
	for i, f := range facts {
		if f.Pred == "" || len(f.Args) == 0 {
			writeError(w, http.StatusBadRequest, "facts[%d]: \"pred\" and \"args\" are required", i)
			return false
		}
	}
	return true
}

// finishMutation runs the commit path and renders the response with the
// reached epoch (header and body).
func (s *Server) finishMutation(w http.ResponseWriter, ops []wal.Op) {
	res, epoch, err := s.commit(ops)
	if err != nil {
		s.writeCommitError(w, err)
		return
	}
	s.mutations.Add(uint64(res.Asserted + res.Retracted))
	w.Header().Set("X-Chainlog-Epoch", strconv.FormatUint(epoch, 10))
	writeJSON(w, http.StatusOK, MutationResponse{Asserted: res.Asserted, Retracted: res.Retracted, Epoch: epoch})
}

func (s *Server) handleAssert(w http.ResponseWriter, r *http.Request) {
	var req MutationRequest
	if !decodeBody(w, r, &req) || !checkFacts(w, req.Facts) {
		return
	}
	ops := make([]wal.Op, 0, len(req.Facts))
	for _, f := range req.Facts {
		ops = append(ops, wal.Op{Pred: f.Pred, Args: f.Args})
	}
	s.finishMutation(w, ops)
}

func (s *Server) handleRetract(w http.ResponseWriter, r *http.Request) {
	var req MutationRequest
	if !decodeBody(w, r, &req) || !checkFacts(w, req.Facts) {
		return
	}
	ops := make([]wal.Op, 0, len(req.Facts))
	for _, f := range req.Facts {
		ops = append(ops, wal.Op{Retract: true, Pred: f.Pred, Args: f.Args})
	}
	s.finishMutation(w, ops)
}

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	var req DeltaRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, "\"ops\" must name at least one operation")
		return
	}
	ops := make([]wal.Op, 0, len(req.Ops))
	for i, op := range req.Ops {
		if op.Pred == "" || len(op.Args) == 0 {
			writeError(w, http.StatusBadRequest, "ops[%d]: \"pred\" and \"args\" are required", i)
			return
		}
		if op.Op != "assert" && op.Op != "retract" {
			writeError(w, http.StatusBadRequest, "ops[%d]: unknown op %q (want \"assert\" or \"retract\")", i, op.Op)
			return
		}
		ops = append(ops, wal.Op{Retract: op.Op == "retract", Pred: op.Pred, Args: op.Args})
	}
	s.finishMutation(w, ops)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	// An optional strategy pin mirrors the query endpoint, so the explain
	// output (adornment, plan choice, rejected alternatives) describes the
	// same route a pinned query would run.
	strategy, err := chainlog.ParseStrategy(r.URL.Query().Get("strategy"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	out, err := s.db.ExplainOpts(r.URL.Query().Get("query"), s.options(strategy, 0))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WriteText(w)
}
