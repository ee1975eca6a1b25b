package main

// The traced run. Tracing inside the program does not exist yet, so every
// layer is measured from outside by a layer replay: after a short untraced run
// against the daemon, a single goroutine takes ops of the same sequence and,
// for each, times the nested public entry points on the same binding in
// process, outermost first. Each call is a span; a layer's self time is its
// span minus the span of the layer below.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"chainlog"
	"chainlog/internal/adorn"
	"chainlog/internal/ast"
	"chainlog/internal/bottomup"
	"chainlog/internal/chaineval"
	"chainlog/internal/equations"
	"chainlog/internal/ivm"
	"chainlog/internal/magic"
	"chainlog/internal/parser"
	"chainlog/internal/qsqnet"
	"chainlog/internal/server"
	"chainlog/internal/symtab"
	"chainlog/internal/wal"
)

const (
	countedOps = 64  // ops whose exact counters are reported: always replayed, whatever the time
	maxReplay  = 500 // ops replayed when time allows
	coldRuns   = 5   // repetitions of a cold-path measurement
)

// span is one timed call into a layer. Spans of one op share its index.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and the durations per layer.
type tracer struct {
	origin time.Time
	spans  []span
	layers map[string][]time.Duration
	derive map[string][]float64 // per-op differences between layers, in microseconds
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), layers: make(map[string][]time.Duration), derive: make(map[string][]float64)}
}

// time runs f as a span of op.
func (t *tracer) time(op int, name, parent string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.spans = append(t.spans, span{op, name, parent, start.Sub(t.origin).Nanoseconds(), end.Sub(t.origin).Nanoseconds()})
	d := end.Sub(start)
	t.layers[name] = append(t.layers[name], d)
	return d
}

// self records a layer's self time for one op: its span minus its children.
func (t *tracer) self(name string, d time.Duration, children ...time.Duration) {
	for _, c := range children {
		d -= c
	}
	t.derive[name] = append(t.derive[name], micros(d))
}

// us is the median of a layer's spans in microseconds; 0 if it has none.
func (t *tracer) us(name string) float64 { return micros(medianDuration(t.layers[name])) }

// selfUs is the median self time, never below zero: the layers are replayed
// one after the other, so the difference of two nearly equal spans can come
// out slightly negative.
func (t *tracer) selfUs(name string) float64 {
	if v := median(t.derive[name]); v > 0 {
		return v
	}
	return 0
}

func (t *tracer) write(path string, st *site) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{"workload": st.w.name, "input_sha256": st.in.sha256, "spans": t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// instance is one in-process copy of the workload's database, loaded from the
// same files the daemon is started on.
type instance struct {
	db      *chainlog.DB
	log     *wal.Log
	handler http.Handler // of a server over db, for the instances that serve
}

func (st *site) newInstance(walDir string, serve bool) (*instance, error) {
	db := chainlog.NewDB()
	if _, err := db.IngestCSV(bytes.NewReader(st.in.csv), st.in.csvRel); err != nil {
		return nil, err
	}
	if err := db.LoadProgram(st.in.program); err != nil {
		return nil, err
	}
	in := &instance{db: db}
	if !serve {
		return in, nil
	}
	cfg := server.Config{DB: db, Logf: func(string, ...any) {}}
	if walDir != "" {
		var err error
		if in.log, err = wal.Open(wal.Options{Dir: walDir}); err != nil {
			return nil, err
		}
		cfg.WAL, cfg.SnapshotBytes = in.log, 65536
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	in.handler = srv.Handler()
	return in, nil
}

func (in *instance) close() {
	if in.log != nil {
		in.log.Close()
	}
}

// slice is the part of the program a predicate depends on.
func slice(prog *ast.Program, pred string) *ast.Program {
	reach := map[string]bool{pred: true}
	for grew := true; grew; {
		grew = false
		for _, r := range prog.Rules {
			if !reach[r.Head.Pred] {
				continue
			}
			for _, l := range r.Body {
				if !l.IsBuiltin() && !reach[l.Pred] {
					reach[l.Pred], grew = true, true
				}
			}
		}
	}
	out := &ast.Program{}
	for _, r := range prog.Rules {
		if reach[r.Head.Pred] {
			out.Rules = append(out.Rules, r)
		}
	}
	return out
}

// engine is the evaluation strategy's own entry point for one template, below
// everything the chainlog package adds.
type engine struct {
	span    string // the entry point's name
	run     func(arg symtab.Sym) error
	refresh func() // after the facts changed
	// What the engine reported over the counted ops.
	counting bool
	qsq      qsqnet.Stats
	bottomUp bottomup.Stats
	calls    int
}

func newEngine(db *chainlog.DB, pred, strategy string) (*engine, error) {
	e := &engine{refresh: func() {}}
	switch strategy {
	case "chain":
		sys, err := equations.Transform(slice(db.Program(), pred))
		if err != nil {
			return nil, err
		}
		eng := chaineval.New(sys, chaineval.StoreSource{Store: db.Store()}, chaineval.Options{MaxNodes: 4 << 20})
		eng.Precompile(pred)
		e.span = "chaineval.query"
		e.run = func(arg symtab.Sym) error { return eng.QueryStream(pred, arg, func(symtab.Sym) {}) }
		e.refresh = eng.RefreshRelations
	case "qsqnet":
		net, err := qsqnet.Compile(slice(db.Program(), pred), pred, "bf")
		if err != nil {
			return nil, err
		}
		e.span = "qsqnet.eval"
		e.run = func(arg symtab.Sym) error {
			_, s, err := net.Eval(context.Background(), db.Store(), []symtab.Sym{arg})
			if e.counting {
				e.qsq.Subqueries += s.Subqueries
				e.qsq.Firings += s.Firings
				e.calls++
			}
			return err
		}
	case "seminaive":
		e.span = "bottomup.seminaive"
		e.run = func(symtab.Sym) error {
			_, s, err := bottomup.SeminaiveCtx(context.Background(), db.Program(), db.Store())
			if e.counting {
				e.bottomUp.Firings += s.Firings
				e.calls++
			}
			return err
		}
	default:
		return nil, fmt.Errorf("no engine entry point known for strategy %q", strategy)
	}
	return e, nil
}

// counters are the exact per-op work counts over the counted ops.
type counters struct {
	ops, rows                                            int
	nodes, iterations, expansions, facts, lookups, bytes int64
	strategies                                           map[string]int
}

// replay is the traced in-process run of one workload.
type replay struct {
	st  *site
	tr  *tracer
	ctr counters

	front    *instance // behind a loopback listener: the request span
	back     *instance // behind Handler().ServeHTTP on a recorder: the server.serve span
	lib      *instance // the library alone: run, eval, engine and, on writes, Apply without a view
	viewed   *instance // write-watch: the library with an open Materialized
	conn     *conn
	stop     func()
	prepared map[string]*chainlog.Prepared
	engines  map[string]*engine

	view    *ivm.View // write-watch: a bare view fed the same deltas
	counted ivm.Stats // its counters after the counted ops
	log     *wal.Log  // write-watch: a bare log fed the same records
	fsyncs  []time.Duration
	walSize []float64

	attempted, failed int
	failures          []string
}

func (r *replay) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func newReplay(st *site) (*replay, error) {
	r := &replay{st: st, tr: newTracer(), prepared: make(map[string]*chainlog.Prepared), engines: make(map[string]*engine)}
	r.ctr.strategies = make(map[string]int)
	walDir := func(name string) string {
		if !st.w.wal {
			return ""
		}
		return filepath.Join(st.dir, name)
	}
	var err error
	if r.front, err = st.newInstance(walDir("replay-front-wal"), true); err != nil {
		return nil, err
	}
	if r.back, err = st.newInstance(walDir("replay-back-wal"), true); err != nil {
		return nil, err
	}
	if r.lib, err = st.newInstance("", false); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: r.front.handler}
	served := make(chan struct{})
	go func() {
		hs.Serve(ln)
		close(served)
	}()
	r.conn = &conn{addr: ln.Addr().String()}
	r.stop = func() {
		r.conn.close()
		hs.Close()
		<-served
		for _, in := range []*instance{r.front, r.back, r.lib, r.viewed} {
			if in != nil {
				in.close()
			}
		}
		if r.log != nil {
			r.log.Close()
		}
	}
	if st.in.writes != nil {
		if err := r.prepareWrites(); err != nil {
			r.stop()
			return nil, err
		}
	}
	return r, nil
}

// prepareWrites sets up what only write-watch replays: the watched view open
// on every instance that has one in the daemon, a bare ivm.View and a bare
// wal.Log.
func (r *replay) prepareWrites() error {
	var err error
	if r.viewed, err = r.st.newInstance("", false); err != nil {
		return err
	}
	for _, in := range []*instance{r.front, r.back, r.viewed} {
		p, err := in.db.Prepare("tc(?, Y)", chainlog.Options{})
		if err != nil {
			return err
		}
		if _, err := p.Materialize(watchedArg); err != nil {
			return err
		}
	}
	// The view a Materialized maintains: the magic rewrite of the rules the
	// watched query depends on.
	rw, err := rewriteWatched(r.lib.db)
	if err != nil {
		return err
	}
	if r.view, err = ivm.NewView(rw.Program, rw.Query.Pred, r.lib.db.Store(), r.lib.db.SymTab()); err != nil {
		return err
	}
	if r.log, err = wal.Open(wal.Options{Dir: filepath.Join(r.st.dir, "replay-bare-wal")}); err != nil {
		return err
	}
	r.log.SetFsyncObserver(func(d time.Duration) { r.fsyncs = append(r.fsyncs, d) })
	return nil
}

func rewriteWatched(db *chainlog.DB) (*magic.Rewritten, error) {
	q, err := parser.ParseQuery("tc("+watchedArg+", Y)", db.SymTab())
	if err != nil {
		return nil, err
	}
	ap, err := adorn.Adorn(slice(db.Program(), q.Pred), q)
	if err != nil {
		return nil, err
	}
	return magic.Rewrite(ap)
}

func (r *replay) preparedFor(o *op) (*chainlog.Prepared, error) {
	key := o.template + "\x00" + o.strategy
	if p := r.prepared[key]; p != nil {
		return p, nil
	}
	strategy, err := chainlog.ParseStrategy(o.strategy)
	if err != nil {
		return nil, err
	}
	// The options the server's registry compiles a template with.
	p, err := r.lib.db.Prepare(o.template, chainlog.Options{Strategy: strategy, MaxNodes: 4 << 20})
	if err == nil {
		r.prepared[key] = p
	}
	return p, err
}

func (r *replay) engineFor(o *op, ran string) (*engine, error) {
	pred, _, _ := strings.Cut(o.template, "(")
	key := pred + "\x00" + ran
	if e := r.engines[key]; e != nil {
		return e, nil
	}
	e, err := newEngine(r.lib.db, pred, ran)
	if err == nil {
		r.engines[key] = e
	}
	return e, err
}

// read replays one query at every layer.
func (r *replay) read(i int, o *op, counted bool) error {
	p, err := r.preparedFor(o)
	if err != nil {
		return err
	}
	sym := r.lib.db.Intern(o.args[0])

	r.attempted++
	var status int
	var body []byte
	var rerr error
	request := r.tr.time(i, "request", "", func() { status, body, rerr = r.conn.roundTrip("POST", o.path(), o.body) })
	if rerr != nil {
		r.fail("%s: %v", o.path(), rerr)
	} else if _, err := o.check(status, body); err != nil {
		r.fail("in-process request: %v", err)
	}
	respBytes := len(body)

	req := httptest.NewRequest("POST", o.path(), bytes.NewReader(o.body))
	rec := httptest.NewRecorder()
	serve := r.tr.time(i, "server.serve", "request", func() { r.back.handler.ServeHTTP(rec, req) })

	var decoded server.QueryRequest
	decode := r.tr.time(i, "server.decode", "server.serve", func() {
		dec := json.NewDecoder(bytes.NewReader(o.body))
		dec.DisallowUnknownFields()
		rerr = dec.Decode(&decoded)
	})
	if rerr != nil {
		return rerr
	}

	var ans *chainlog.Answer
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	run := r.tr.time(i, "chainlog.run", "server.serve", func() { ans, rerr = p.RunCtx(ctx, o.args...) })
	cancel()
	if rerr != nil {
		return rerr
	}

	eval := r.tr.time(i, "chainlog.eval", "chainlog.run", func() { rerr = p.RunSymsFunc(func([]symtab.Sym) {}, sym) })
	if rerr != nil {
		return rerr
	}

	ran := ans.Stats.Strategy.String()
	eng, err := r.engineFor(o, ran)
	if err != nil {
		return err
	}
	eng.counting = counted
	engine := r.tr.time(i, eng.span, "chainlog.eval", func() { rerr = eng.run(sym) })
	if rerr != nil {
		return rerr
	}

	var buf bytes.Buffer
	res := server.QueryResponse{Result: &server.QueryResult{Vars: ans.Vars, Rows: ans.Rows}}
	encode := r.tr.time(i, "server.encode", "server.serve", func() { rerr = json.NewEncoder(&buf).Encode(res) })
	if rerr != nil {
		return rerr
	}

	r.tr.self("http.transport", request, serve)
	r.tr.self("server.overhead", serve, decode, run, encode)
	r.tr.self("chainlog.render", run, eval)
	r.tr.self("chainlog.plan", eval, engine)
	if counted {
		c := &r.ctr
		c.ops++
		c.rows += len(ans.Rows)
		c.nodes += int64(ans.Stats.Nodes)
		c.iterations += int64(ans.Stats.Iterations)
		c.expansions += int64(ans.Stats.Expansions)
		c.facts += ans.Stats.FactsConsulted
		c.lookups += ans.Stats.Lookups
		c.bytes += int64(respBytes)
		c.strategies[ran]++
	}
	return nil
}

// write replays one delta on every instance, so that all of them stay in the
// state the sequence expects.
func (r *replay) write(i int, o *op) error {
	r.attempted++
	var status int
	var body []byte
	var rerr error
	r.tr.time(i, "request.write", "", func() { status, body, rerr = r.conn.roundTrip("POST", o.path(), o.body) })
	if rerr != nil {
		r.fail("%s: %v", o.path(), rerr)
	} else if _, err := o.check(status, body); err != nil {
		r.fail("in-process request: %v", err)
	}

	req := httptest.NewRequest("POST", o.path(), bytes.NewReader(o.body))
	rec := httptest.NewRecorder()
	r.tr.time(i, "server.serve.write", "request.write", func() { r.back.handler.ServeHTTP(rec, req) })

	delta := func() *chainlog.Delta {
		d := &chainlog.Delta{}
		for _, x := range o.delta {
			if x.Op == "assert" {
				d.Assert(x.Pred, x.Args...)
			} else {
				d.Retract(x.Pred, x.Args...)
			}
		}
		return d
	}
	d := delta()
	withView := r.tr.time(i, "chainlog.apply.viewed", "server.serve.write", func() { r.viewed.db.Apply(d) })
	d = delta()
	apply := r.tr.time(i, "chainlog.apply", "chainlog.apply.viewed", func() { r.lib.db.Apply(d) })
	r.tr.self("ivm.maintain", withView, apply)
	for _, e := range r.engines {
		e.refresh()
	}

	var ins, del []ivm.Fact
	var record wal.Record
	for _, x := range o.delta {
		args := make([]symtab.Sym, len(x.Args))
		for k, a := range x.Args {
			args[k] = r.lib.db.Intern(a)
		}
		if x.Op == "assert" {
			ins = append(ins, ivm.Fact{Pred: x.Pred, Args: args})
		} else {
			del = append(del, ivm.Fact{Pred: x.Pred, Args: args})
		}
		record.Ops = append(record.Ops, wal.Op{Retract: x.Op != "assert", Pred: x.Pred, Args: x.Args})
	}
	r.tr.time(i, "ivm.apply_base", "chainlog.apply.viewed", func() { _, _, rerr = r.view.ApplyBase(ins, del) })
	if rerr != nil {
		return rerr
	}
	record.Epoch = r.log.LastEpoch() + 1
	before := r.log.SizeSinceSnapshot()
	r.tr.time(i, "wal.append", "server.serve.write", func() { rerr = r.log.Append(record) })
	r.walSize = append(r.walSize, float64(r.log.SizeSinceSnapshot()-before))
	return rerr
}

// run replays ops of the sequence in order: the first countedOps always, more
// until the time is up.
func (r *replay) run(budget time.Duration) error {
	deadline := time.Now().Add(budget)
	ops := r.st.in.ops
	for i := 0; i < maxReplay; i++ {
		o := &ops[i%len(ops)]
		if i == countedOps && r.view != nil {
			r.counted = r.view.Stats()
		}
		// Past the counted ops the replay ends when the time is up, but
		// never between a write and its read.
		if i >= countedOps && time.Now().After(deadline) && (o.write || r.st.in.writes == nil) {
			break
		}
		var err error
		if o.write {
			err = r.write(i, o)
		} else {
			err = r.read(i, o, i < countedOps)
		}
		if err != nil {
			return fmt.Errorf("replaying op %d (%s %v): %w", i, o.template, o.args, err)
		}
	}
	return nil
}

// allocations runs f once per counted read and reports the heap traffic per
// call: objects, bytes, and the collector's cycles and pauses over the loop.
func (r *replay) allocations(f func(o *op)) (objects, bytes float64, cycles int, pause time.Duration) {
	var reads []*op
	for i := 0; i < countedOps && i < len(r.st.in.ops); i++ {
		if o := &r.st.in.ops[i]; !o.write {
			reads = append(reads, o)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, o := range reads {
		f(o)
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(reads))
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n,
		int(m1.NumGC - m0.NumGC), time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
}

// cold times f coldRuns times and returns the median.
func cold(f func() error) (time.Duration, error) {
	times := make([]time.Duration, coldRuns)
	for i := range times {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times[i] = time.Since(start)
	}
	return medianDuration(times), nil
}

// perCall times batches of n calls and returns the median time of one call in
// nanoseconds: single calls of this size are below the clock's resolution.
func perCall(n int, f func(i int)) float64 {
	times := make([]float64, coldRuns)
	for k := range times {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		times[k] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(times)
}

// coldPaths measures what a request does not pay every time: loading,
// parsing, compiling, snapshots and recovery.
func (r *replay) coldPaths(v map[string]float64) error {
	st, db := r.st, r.lib.db
	// timed records the median of coldRuns executions of f under name, in the
	// given unit; after the first failure it does nothing.
	var failed error
	timed := func(name string, unit time.Duration, f func() error) {
		if failed != nil {
			return
		}
		d, err := cold(f)
		if err != nil {
			failed = fmt.Errorf("%s: %w", name, err)
			return
		}
		v[name] = float64(d) / float64(unit)
	}

	snap := filepath.Join(st.dir, "replay.snap")
	var loaded *chainlog.DB
	timed("chainlog.ingest_csv_s", time.Second, func() error {
		loaded = chainlog.NewDB()
		_, err := loaded.IngestCSV(bytes.NewReader(st.in.csv), st.in.csvRel)
		return err
	})
	timed("snapshot.write_s", time.Second, func() error { return loaded.WriteSnapshot(snap) })
	if info, err := os.Stat(snap); err == nil {
		v["snapshot.bytes_per_fact"] = float64(info.Size()) / float64(bytes.Count(st.in.csv, []byte{'\n'}))
	}
	timed("snapshot.open_s", time.Second, func() error {
		opened, err := chainlog.OpenSnapshot(snap)
		if err != nil {
			return err
		}
		return opened.Close()
	})
	timed("parser.parse_program_s", time.Second, func() error {
		_, err := parser.Parse(st.in.program, symtab.NewTable())
		return err
	})
	var facts bytes.Buffer
	if err := db.DumpFacts(&facts); err != nil {
		return err
	}
	timed("chainlog.restore_text_s", time.Second, func() error {
		return chainlog.NewDB().RestoreFacts(bytes.NewReader(facts.Bytes()), 1)
	})

	probe := &st.in.ready[0]
	v["parser.parse_template_us"] = perCall(256, func(int) { parser.ParseQueryTemplate(probe.template, db.SymTab()) }) / 1e3
	strategy, err := chainlog.ParseStrategy(probe.strategy)
	if err != nil {
		return err
	}
	timed("chainlog.prepare_us", time.Microsecond, func() error {
		_, err := db.Prepare(probe.template, chainlog.Options{Strategy: strategy, MaxNodes: 4 << 20})
		return err
	})
	if r.engines["tcn\x00qsqnet"] != nil {
		timed("qsqnet.compile_us", time.Microsecond, func() error {
			_, err := qsqnet.Compile(slice(db.Program(), "tcn"), "tcn", "bf")
			return err
		})
	}
	if st.in.writes != nil {
		timed("magic.rewrite_us", time.Microsecond, func() error {
			_, err := rewriteWatched(db)
			return err
		})
	}
	if failed != nil {
		return failed
	}

	// Symbol table and adjacency probes, over the constants the sequence binds.
	var names []string
	for i := range st.in.ops {
		if o := &st.in.ops[i]; !o.write {
			names = append(names, o.args[0])
		}
	}
	syms := make([]symtab.Sym, len(names))
	for i, n := range names {
		syms[i] = db.Intern(n)
	}
	table := db.SymTab()
	v["symtab.intern_ns"] = perCall(len(names), func(i int) { table.Intern(names[i]) })
	v["symtab.name_ns"] = perCall(len(syms), func(i int) { table.Name(syms[i]) })
	if rel := db.Store().Relation(st.in.csvRel); rel != nil {
		v["edb.successors_ns"] = perCall(len(syms), func(i int) { rel.Successors(syms[i]) })
	}
	if st.in.writes != nil {
		return r.recovery(v)
	}
	return nil
}

// recovery times a restart's parts on the log the front instance wrote:
// opening the log, restoring its newest snapshot, replaying the tail.
func (r *replay) recovery(v map[string]float64) error {
	dir := filepath.Join(r.st.dir, "replay-front-wal")
	r.front.log.Close()
	r.front.log = nil
	var l *wal.Log
	d, err := cold(func() error {
		if l != nil {
			l.Close()
		}
		var err error
		l, err = wal.Open(wal.Options{Dir: dir})
		return err
	})
	if err != nil {
		return err
	}
	defer l.Close()
	v["wal.open_s"] = d.Seconds()
	// A restart boots the program and facts it was first started on (their
	// epochs are not in the log), restores the newest snapshot if there is
	// one, and replays the tail. Only the last two are timed.
	times := make([]time.Duration, coldRuns)
	for i := range times {
		in, err := r.st.newInstance("", false)
		if err != nil {
			return err
		}
		start := time.Now()
		if path, epoch, ok := l.Snapshot(); ok {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			err = in.db.RestoreFactsAuto(f, epoch)
			f.Close()
			if err != nil {
				return err
			}
		}
		if err := l.ReadFrom(in.db.FactEpoch(), func(rec wal.Record) error {
			in.db.ApplyAt(server.DeltaOfOps(rec.Ops), rec.Epoch)
			return nil
		}); err != nil {
			return err
		}
		times[i] = time.Since(start)
	}
	v["wal.replay_s"] = medianDuration(times).Seconds()
	return nil
}

// runTraced is the --trace 1 run: a short untraced run against the daemon for
// what only a real process shows, then the layer replay.
func runTraced(st *site, b *benchmarkFile, measure time.Duration) (*result, error) {
	e, err := st.run(measure*2/5, 1)
	if err != nil {
		return nil, err
	}
	e.log()
	r, err := newReplay(st)
	if err != nil {
		return nil, err
	}
	defer r.stop()
	if err := r.run(measure / 2); err != nil {
		return nil, err
	}

	v := make(map[string]float64)
	for _, d := range b.PerLayer {
		v[d.Name] = 0 // a layer the workload does not reach reads zero
	}
	tr := r.tr
	v["trace.request_us"] = tr.us("request")
	v["http.transport_us"] = tr.selfUs("http.transport")
	v["server.serve_us"] = tr.us("server.serve")
	v["server.decode_us"] = tr.us("server.decode")
	v["server.encode_us"] = tr.us("server.encode")
	v["server.overhead_us"] = tr.selfUs("server.overhead")
	v["chainlog.run_us"] = tr.us("chainlog.run")
	v["chainlog.render_us"] = tr.selfUs("chainlog.render")
	v["chainlog.plan_us"] = tr.selfUs("chainlog.plan")
	if st.in.writes != nil {
		// Every read of write-watch follows a write: its run is the first
		// after an Apply and pays the plan's refresh.
		v["chainlog.refresh_run_us"] = tr.us("chainlog.run")
	}
	v["chaineval.query_us"] = tr.us("chaineval.query")
	v["qsqnet.eval_us"] = tr.us("qsqnet.eval")
	v["bottomup.seminaive_us"] = tr.us("bottomup.seminaive")
	v["chainlog.apply_us"] = tr.us("chainlog.apply")
	v["ivm.maintain_us"] = tr.selfUs("ivm.maintain")
	v["ivm.apply_base_us"] = tr.us("ivm.apply_base")
	v["wal.append_us"] = tr.us("wal.append")
	v["wal.fsync_us"] = micros(medianDuration(r.fsyncs))
	v["wal.bytes_per_write"] = median(r.walSize)

	if c := r.ctr; c.ops > 0 {
		n := float64(c.ops)
		v["server.resp_bytes_per_op"] = float64(c.bytes) / n
		v["edb.facts_consulted_per_op"] = float64(c.facts) / n
		v["edb.lookups_per_op"] = float64(c.lookups) / n
		if c.rows > 0 {
			v["edb.facts_per_row"] = float64(c.facts) / float64(c.rows)
		}
		for name, k := range c.strategies {
			v["plan.share."+name] = float64(k) / n
		}
		if k := c.strategies["chain"]; k > 0 {
			// Only chain plans report the interpretation graph.
			v["chaineval.nodes_per_op"] = float64(c.nodes) / float64(k)
			v["chaineval.iterations_per_op"] = float64(c.iterations) / float64(k)
			v["chaineval.expansions_per_op"] = float64(c.expansions) / float64(k)
		}
	}
	for _, eng := range r.engines {
		if eng.calls == 0 {
			continue
		}
		if eng.qsq.Firings > 0 {
			v["qsqnet.firings_per_op"] = float64(eng.qsq.Firings) / float64(eng.calls)
			v["qsqnet.subqueries_per_op"] = float64(eng.qsq.Subqueries) / float64(eng.calls)
		}
		if eng.bottomUp.Firings > 0 {
			v["bottomup.firings_per_op"] = float64(eng.bottomUp.Firings) / float64(eng.calls)
		}
	}

	// Heap traffic of the library call and of the whole handler, per read.
	v["chainlog.run_allocs_per_op"], v["chainlog.run_bytes_per_op"], _, _ = r.allocations(func(o *op) {
		if p, err := r.preparedFor(o); err == nil {
			p.RunCtx(context.Background(), o.args...)
		}
	})
	var cycles int
	var pause time.Duration
	_, v["process.alloc_bytes_per_op"], cycles, pause = r.allocations(func(o *op) {
		r.back.handler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", o.path(), bytes.NewReader(o.body)))
	})
	v["process.gc_cycles"] = float64(cycles)
	v["process.gc_pause_ms"] = millis(pause)

	if r.viewed != nil {
		r.viewStats(v)
	}
	if err := r.coldPaths(v); err != nil {
		return nil, err
	}

	// What only the daemon shows.
	v["server.rejected"] = e.after["chainlogd_rejected_total"]
	v["plan.reoptimizations"] = e.scraped["chainlog_plan_reoptimizations_total"]
	if hits, misses := e.scraped["chainlogd_plan_cache_hits_total"], e.scraped["chainlogd_plan_cache_misses_total"]; hits+misses > 0 {
		v["plancache.hit_ratio"] = hits / (hits + misses)
	}
	v["wal.segments"] = e.after["chainlogd_wal_segments"]
	v["wal.snapshots"] = e.scraped["chainlogd_wal_snapshots_total"]
	calibs := make([]float64, len(e.rounds))
	for i := range e.rounds {
		calibs[i] = millis(e.rounds[i].calib)
	}
	v["machine.calib_ms"] = median(calibs)
	v["machine.calib_spread"] = spread(calibs)
	v["machine.rounds_discarded"] = float64(e.discarded)
	v["machine.nproc"] = float64(runtime.NumCPU())
	untraced := median(e.perRound(func(r *round) float64 { return millis(percentile(r.t.query, 0.50)) }))
	v["query_p99_ms"] = median(e.perRound(func(r *round) float64 { return millis(percentile(r.t.query, 0.99)) }))
	v["trace.overhead_ratio"] = tr.us("request") / 1e3 / untraced
	if st.in.writes != nil {
		v["write_p50_ms"] = median(e.perRound(func(r *round) float64 { return millis(percentile(r.t.write, 0.50)) }))
		v["write_p99_ms"] = median(e.perRound(func(r *round) float64 { return millis(percentile(r.t.write, 0.99)) }))
		v["write_qps"] = median(e.perRound(func(r *round) float64 { return float64(len(r.t.write)) / r.wall.Seconds() }))
		v["watch_lag_p50_ms"] = median(e.perRound(func(r *round) float64 { return millis(percentile(r.lag, 0.50)) }))
		v["restart_s"] = e.restart.Seconds()
	}
	attempted, failed := e.attempted+r.attempted, e.failed+r.failed
	v["error_rate"] = float64(failed) / float64(attempted)

	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "bench: FAILED %s\n", f)
	}
	fmt.Fprintf(os.Stderr, "bench: replayed %d spans; request %.1fus = transport %.1fus + serve %.1fus (%.0f%% accounted); run %.1fus, engines: chaineval %.1fus qsqnet %.1fus bottomup %.1fus\n",
		len(tr.spans), v["trace.request_us"], v["http.transport_us"], v["server.serve_us"],
		100*(v["http.transport_us"]+v["server.serve_us"])/v["trace.request_us"],
		v["chainlog.run_us"], v["chaineval.query_us"], v["qsqnet.eval_us"], v["bottomup.seminaive_us"])
	path := filepath.Join(st.ws.out, "trace-"+st.w.name+".json")
	if err := tr.write(path, st); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: spans written to %s\n", path)
	return report(b.PerLayer, v, attempted, failed)
}

// viewStats reads how the views were kept current: of the mutations the
// viewed instance saw, the share its view absorbed incrementally, and the bare
// view's repair and size counters after the counted ops.
func (r *replay) viewStats(v map[string]float64) {
	maintained, recomputed := r.viewed.db.ViewStats()
	if total := maintained + recomputed; total > 0 {
		v["ivm.maintained_ratio"] = float64(maintained) / float64(total)
	}
	v["ivm.repairs"] = float64(r.counted.Repairs)
	v["ivm.view_facts"] = float64(r.counted.Facts)
}
