// Package server implements chainlogd's HTTP serving layer over a
// chainlog.DB: JSON query/mutation endpoints over the DB's plan cache
// (a template compiles once, single-flight), per-request deadlines
// propagated into the traversal via context cancellation, MaxNodes-based
// admission control, a bounded in-flight limiter (429 + Retry-After on
// saturation), and Prometheus-style /metrics exposition.
//
// The package contains no evaluation logic — it is a thin, production-
// shaped shell: every answer comes from the same Prepared/RunBatch/Delta
// APIs library callers use, so a served query and a direct DB call are
// interchangeable (the handler tests pin that equivalence).
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"chainlog"

	"chainlog/internal/metrics"
	"chainlog/internal/wal"
)

// Config tunes a Server. The zero value of every field gets a production
// default; only DB is required.
type Config struct {
	// DB is the database to serve. Required.
	DB *chainlog.DB

	// MaxInFlight bounds concurrently executing /v1/* requests; excess
	// requests are rejected with 429 and a Retry-After header instead of
	// queueing without bound. Default 64.
	MaxInFlight int

	// DefaultTimeout is the per-request evaluation deadline applied when
	// the request names none; MaxTimeout clamps request-supplied
	// deadlines. Defaults 5s and 30s.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// MaxNodes is the admission cap on a query's interpretation-graph
	// size: request-supplied max_nodes values are clamped to it and
	// requests naming none inherit it, so no single query can hold a
	// worker on an unbounded traversal. Default 4M nodes; -1 disables
	// the cap.
	MaxNodes int

	// RetryAfter is the Retry-After hint on 429 responses. Default 1s.
	RetryAfter time.Duration

	// Logf receives one line per lifecycle event (boot, drain) and per
	// failed request. Default log.Printf.
	Logf func(format string, args ...any)

	// WAL, when set, makes every committed mutation durable: the record
	// is appended and synced (per the log's policy) before it is applied,
	// so no reader sees an undurable write, and /v1/replicate serves the
	// log to replicas. Nil keeps the in-memory-only behavior.
	WAL *wal.Log

	// Role is "primary" (default: accepts writes, serves the feed) or
	// "replica" (rejects writes with 403 + X-Chainlog-Primary, tails
	// PrimaryURL). POST /v1/promote flips a replica to primary at
	// runtime.
	Role string

	// PrimaryURL is the primary's base URL — where a replica tails from
	// and bootstraps against, and what its 403s advertise to clients.
	// Required for Role "replica".
	PrimaryURL string

	// ReplicateWindow bounds one long-poll of either feed, /v1/replicate
	// or /v1/watch: a connection closes after this long and the replica
	// or subscriber reconnects with its cursor. Default 25s.
	ReplicateWindow time.Duration

	// WatchLinger keeps a watched view alive after its last subscriber
	// disconnects, so a client that reconnects within the window resumes
	// from its (from, gen) cursor instead of paying a snapshot reset.
	// Default 1m; negative closes views on the last unsubscribe.
	WatchLinger time.Duration

	// SnapshotBytes is the auto-snapshot threshold: once this many WAL
	// bytes accumulate past the newest snapshot, a binary snapshot is
	// written in the background and covered segments are truncated.
	// Default 8 MiB; negative disables auto-snapshots.
	SnapshotBytes int64
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.MaxNodes == 0 {
		c.MaxNodes = 4 << 20
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.Role == "" {
		c.Role = RolePrimary
	}
	if c.ReplicateWindow == 0 {
		c.ReplicateWindow = 25 * time.Second
	}
	if c.WatchLinger == 0 {
		c.WatchLinger = time.Minute
	}
	if c.SnapshotBytes == 0 {
		c.SnapshotBytes = 8 << 20
	}
	return c
}

// Server is the HTTP serving layer. Create with New, mount Handler on an
// http.Server, and call SetDraining(true) before http.Server.Shutdown so
// load balancers watching /healthz stop routing new traffic.
type Server struct {
	cfg      Config
	db       *chainlog.DB
	metrics  *metrics.Registry
	sem      chan struct{}
	draining atomic.Bool
	drainCh  chan struct{} // closed on the first SetDraining(true)

	inFlight  *metrics.Gauge
	rejected  *metrics.Counter
	latency   map[string]*metrics.Histogram
	requests  func(endpoint, code string) *metrics.Counter
	mutations *metrics.Counter

	// Replication state (see replication.go). The DB lets one writer in
	// at a time, so log order is epoch order; its Updates broadcasts
	// epoch movement to min-epoch waiters and feeds.
	wal          *wal.Log
	replica      atomic.Bool
	snapInFlight atomic.Bool
	replMu       sync.Mutex
	replCancel   context.CancelFunc
	replWG       sync.WaitGroup
	replClient   *http.Client
	replHead     atomic.Uint64

	snapshots     *metrics.Counter
	replApplied   *metrics.Counter
	replLag       *metrics.Gauge
	replConnected *metrics.Gauge

	// Watch state (see watch.go): refcounted live views shared across
	// /v1/watch subscribers of the same (template, args).
	watchMu   sync.Mutex
	watches   map[watchKey]*watchEntry
	watchSubs *metrics.Gauge
}

// endpoints names every instrumented route; per-endpoint histograms are
// pre-registered so /metrics exposes the full set from the first scrape.
var endpoints = []string{"query", "assert", "retract", "delta", "explain", "healthz", "metrics",
	"replicate", "snapshot", "status", "promote", "watch"}

// New builds a Server over the database.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	switch cfg.Role {
	case RolePrimary:
	case RoleReplica:
		if cfg.PrimaryURL == "" {
			return nil, errors.New("server: Role \"replica\" requires Config.PrimaryURL")
		}
	default:
		return nil, fmt.Errorf("server: unknown Role %q (want %q or %q)", cfg.Role, RolePrimary, RoleReplica)
	}
	if cfg.PrimaryURL != "" {
		if err := primaryURLValid(cfg.PrimaryURL); err != nil {
			return nil, fmt.Errorf("server: Config.PrimaryURL: %w", err)
		}
	}
	reg := metrics.NewRegistry()
	s := &Server{
		cfg:     cfg,
		db:      cfg.DB,
		metrics: reg,
		sem:     make(chan struct{}, cfg.MaxInFlight),
		drainCh: make(chan struct{}),
		wal:     cfg.WAL,
		watches: make(map[watchKey]*watchEntry),
		// The tailer holds one long-poll connection at a time; no client
		// timeout (the feed window bounds it), ctx cancels on shutdown.
		replClient: &http.Client{},
		inFlight:   reg.Gauge("chainlogd_in_flight_requests", "Requests currently executing.", ""),
		rejected:   reg.Counter("chainlogd_rejected_total", "Requests rejected by the in-flight limiter (HTTP 429).", ""),
		latency:    make(map[string]*metrics.Histogram),
		mutations: reg.Counter("chainlogd_fact_mutations_total",
			"Facts asserted or retracted (net of no-ops) across all mutation endpoints.", ""),
	}
	s.replica.Store(cfg.Role == RoleReplica)
	for _, ep := range endpoints {
		s.latency[ep] = reg.Histogram("chainlogd_request_seconds",
			"Request latency by endpoint.", metrics.Labels("endpoint", ep), nil)
	}
	s.requests = func(endpoint, code string) *metrics.Counter {
		return reg.Counter("chainlogd_requests_total", "Requests served by endpoint and status code.",
			metrics.Labels("endpoint", endpoint, "code", code))
	}
	// The DB's plan cache, which every query body compiles through, read at
	// scrape time. A miss is a compilation: single-flight, so a thundering
	// herd of one shape counts one.
	reg.CounterFunc("chainlogd_plan_cache_hits_total", "Queries served by an already-compiled plan.", "",
		func() float64 { return float64(cfg.DB.PlanCacheStats().Hits) })
	reg.CounterFunc("chainlogd_plan_cache_misses_total", "Queries that found no compiled plan.", "",
		func() float64 { return float64(cfg.DB.PlanCacheStats().Misses) })
	reg.CounterFunc("chainlogd_plan_compiles_total", "Plan compilations performed.", "",
		func() float64 { return float64(cfg.DB.PlanCacheStats().Misses) })
	reg.GaugeFunc("chainlogd_plan_registry_entries", "Keys in the plan cache: template texts and template shapes.", "",
		func() float64 { return float64(cfg.DB.PlanCacheStats().Size) })
	// Epoch exposure: where this node sits in the replication log, read
	// at scrape time.
	reg.GaugeFunc("chainlogd_fact_epoch", "Current fact epoch (replication log sequence number).", "",
		func() float64 { return float64(cfg.DB.FactEpoch()) })
	reg.GaugeFunc("chainlogd_rule_epoch", "Current rule epoch (plan-invalidating mutations).", "",
		func() float64 { return float64(cfg.DB.RuleEpoch()) })
	// Engine-level (not daemon-level) counter, hence the chainlog_ prefix:
	// Auto plans re-costed after cardinality drift or runtime feedback
	// contradicted the cost estimate.
	reg.CounterFunc("chainlog_plan_reoptimizations_total",
		"Plan re-optimizations performed by the cost-based optimizer.", "",
		func() float64 { return float64(cfg.DB.Reoptimizations()) })
	// View maintenance accounting: how often live views absorbed a delta
	// incrementally versus fell back to a full recompute.
	reg.CounterFunc("chainlog_view_maintained_total",
		"Mutations absorbed incrementally by materialized views.", "",
		func() float64 { m, _ := cfg.DB.ViewStats(); return float64(m) })
	reg.CounterFunc("chainlog_view_recomputed_total",
		"Full recomputes of materialized views (rule loads, restores, count underflow).", "",
		func() float64 { _, r := cfg.DB.ViewStats(); return float64(r) })
	s.watchSubs = reg.Gauge("chainlog_watch_subscribers", "Live /v1/watch subscribers.", "")
	s.snapshots = reg.Counter("chainlogd_wal_snapshots_total", "WAL snapshots written (with segment truncation).", "")
	s.replApplied = reg.Counter("chainlogd_replication_applied_total", "Replicated records applied by the tailer.", "")
	s.replLag = reg.Gauge("chainlogd_replication_lag", "Epochs behind the primary's head (replicas; 0 when caught up).", "")
	s.replConnected = reg.Gauge("chainlogd_replication_connected", "1 while the tailer holds a live feed connection.", "")
	if s.wal != nil {
		fsyncHist := reg.Histogram("chainlogd_wal_fsync_seconds", "WAL segment fsync latency.", "",
			[]float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1})
		s.wal.SetFsyncObserver(func(d time.Duration) { fsyncHist.Observe(d.Seconds()) })
		reg.GaugeFunc("chainlogd_wal_last_epoch", "Epoch of the newest WAL record.", "",
			func() float64 { return float64(s.wal.LastEpoch()) })
		reg.GaugeFunc("chainlogd_wal_segments", "Live WAL segment files.", "",
			func() float64 { return float64(s.wal.Segments()) })
		reg.GaugeFunc("chainlogd_wal_bytes_since_snapshot", "WAL bytes appended past the newest snapshot.", "",
			func() float64 { return float64(s.wal.SizeSinceSnapshot()) })
	}
	return s, nil
}

// Metrics exposes the server's metrics registry (for tests and embedded
// use).
func (s *Server) Metrics() *metrics.Registry { return s.metrics }

// SetDraining flips the drain flag: /healthz answers 503 so load
// balancers take the instance out of rotation while in-flight requests
// finish under http.Server.Shutdown. The first transition to draining
// also wakes long-poll feed connections so Shutdown does not wait a
// whole replicate window for them.
func (s *Server) SetDraining(v bool) {
	if v && s.draining.CompareAndSwap(false, true) {
		close(s.drainCh)
		return
	}
	s.draining.Store(v)
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/query", s.instrument("query", true, s.handleQuery))
	mux.Handle("POST /v1/assert", s.instrument("assert", true, s.handleFacts(false)))
	mux.Handle("POST /v1/retract", s.instrument("retract", true, s.handleFacts(true)))
	mux.Handle("POST /v1/delta", s.instrument("delta", true, s.handleDelta))
	mux.Handle("GET /v1/explain", s.instrument("explain", true, s.handleExplain))
	mux.Handle("GET /healthz", s.instrument("healthz", false, s.handleHealthz))
	mux.Handle("GET /metrics", s.instrument("metrics", false, s.handleMetrics))
	// Replication routes run outside the in-flight limiter: the feed is
	// a long-lived connection, and status/snapshot must answer even on a
	// saturated node (that is when the operator needs them).
	mux.Handle("GET /v1/replicate", s.instrument("replicate", false, s.handleReplicate))
	// The watch feed is likewise a long-lived connection: counting it
	// against MaxInFlight would let a handful of idle subscribers starve
	// the query path.
	mux.Handle("GET /v1/watch", s.instrument("watch", false, s.handleWatch))
	mux.Handle("GET /v1/snapshot", s.instrument("snapshot", false, s.handleSnapshot))
	mux.Handle("GET /v1/status", s.instrument("status", false, s.handleStatus))
	mux.Handle("POST /v1/promote", s.instrument("promote", false, s.handlePromote))
	return mux
}

// statusRecorder captures the status code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so the streamed feeds
// (serveFeed) work through the instrumentation wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the limiter (when limited), the
// in-flight gauge, and per-endpoint latency/request-count metrics. The
// endpoint's 200 counter is resolved here, once: looking a series up
// renders its label block and takes the registry lock, which only
// requests that end in another status still pay.
func (s *Server) instrument(endpoint string, limited bool, h http.HandlerFunc) http.Handler {
	hist := s.latency[endpoint]
	served := s.requests(endpoint, "200")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if limited {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.rejected.Inc()
				s.requests(endpoint, "429").Inc()
				w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds())))
				writeError(w, http.StatusTooManyRequests, "server at capacity")
				return
			}
		}
		s.inFlight.Inc()
		defer s.inFlight.Dec()
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		hist.Observe(time.Since(start).Seconds())
		if rec.status == http.StatusOK {
			served.Inc()
		} else {
			s.requests(endpoint, strconv.Itoa(rec.status)).Inc()
		}
	})
}

// requestContext derives the evaluation context: the request-supplied
// timeout_ms clamped to MaxTimeout, DefaultTimeout when absent. The
// returned context also carries the client-disconnect cancellation of
// r.Context.
func (s *Server) requestContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		// Compared in milliseconds: a huge timeout_ms would wrap negative
		// as a Duration.
		d = s.cfg.MaxTimeout
		if int64(timeoutMS) < d.Milliseconds() {
			d = time.Duration(timeoutMS) * time.Millisecond
		}
	}
	return context.WithTimeout(r.Context(), min(d, s.cfg.MaxTimeout))
}

// options is what a request evaluates under. The strategy, with the
// template, keys the DB's plan cache, so a query, a watch and an
// explain of one shape meet on one plan whatever max_nodes each asks.
func (s *Server) options(strategy chainlog.Strategy, maxNodes int) chainlog.Options {
	return chainlog.Options{Strategy: strategy, MaxNodes: s.admitMaxNodes(maxNodes)}
}

// admitMaxNodes resolves a request's max_nodes against the server cap:
// absent inherits the cap, larger clamps to it. The result lands in
// Options.MaxNodes, so an admitted query cannot build an interpretation
// graph beyond what the operator allowed.
func (s *Server) admitMaxNodes(requested int) int {
	limit := s.cfg.MaxNodes
	if limit < 0 {
		limit = 0 // unlimited
	}
	switch {
	case requested <= 0:
		return limit
	case limit > 0 && requested > limit:
		return limit
	default:
		return requested
	}
}

// httpStatusFor maps an evaluation error to a response status:
// deadline/cancellation to 504 (the request's deadline fired) or 499
// (the client went away), the MaxNodes admission bound to 422, and
// everything else — parse errors, unknown strategies, bad templates —
// to 400 (the request was at fault, not the server).
func httpStatusFor(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, chainlog.ErrMaxNodes):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusBadRequest
	}
}

// ListenAndServe runs the server at addr until ctx is canceled, then
// drains: /healthz flips to 503 and http.Server.Shutdown waits up to
// drainTimeout for in-flight requests. It returns nil on a clean drain —
// the SIGTERM path cmd/chainlogd and the e2e harness assert on.
func (s *Server) ListenAndServe(ctx context.Context, addr string, drainTimeout time.Duration) error {
	hs := &http.Server{
		Addr:    addr,
		Handler: s.Handler(),
		// Slow clients must not hold connections invisible to the
		// in-flight limiter (which only counts requests that reached a
		// handler): bound header reads and idle keep-alives.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	s.cfg.Logf("chainlogd: serving on %s as %s (max-inflight=%d, default-timeout=%s, max-nodes=%d)",
		addr, s.Role(), s.cfg.MaxInFlight, s.cfg.DefaultTimeout, s.cfg.MaxNodes)
	if s.replica.Load() {
		s.StartReplication(ctx)
	}
	select {
	case err := <-errc:
		return err // bind failure or unexpected listener death
	case <-ctx.Done():
	}
	s.stopReplication()
	s.SetDraining(true)
	s.cfg.Logf("chainlogd: draining (waiting up to %s for in-flight requests)", drainTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	s.cfg.Logf("chainlogd: drained cleanly")
	return nil
}
