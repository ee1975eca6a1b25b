package main

// The six workloads and the end-to-end run against a real chainlogd: set-up,
// warm-up, calibrated rounds and, on write-watch, the end-of-run state checks.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

// workload is one traffic mix. Its reason for existing is recorded in
// BENCHMARK.json and bench/README.md.
type workload struct {
	name  string
	gen   func(*rand.Rand, sizes) *input
	conns int      // query connections; write-watch adds the subscriber's
	wal   bool     // run the daemon on a write-ahead log
	flags []string // daemon flags that depart from the defaults
}

var workloads = []workload{
	{name: "point-lookup", gen: genPointLookup, conns: 2},
	{name: "deep-traverse", gen: genDeepTraverse, conns: 2},
	{name: "wide-answer", gen: genWideAnswer, conns: 2},
	{name: "general-join", gen: genGeneralJoin, conns: 2},
	{name: "sparse-large", gen: genSparseLarge, conns: 2},
	// -fsync always is the daemon's default and is spelled out because the
	// write metrics mean nothing without it. The snapshot threshold is
	// lowered from 8 MiB so that a run of a few seconds sees several
	// background snapshots.
	{name: "write-watch", gen: genWriteWatch, conns: 1, wal: true,
		flags: []string{"-fsync", "always", "-snapshot-bytes", "65536"}},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

const (
	rounds     = 10
	setUps     = 5 // per untraced run: set-up time is reported as their median
	maxReruns  = 3
	watchedArg = "t1"
)

// site is one workload's generated input laid out on disk.
type site struct {
	ws   *workspace
	w    *workload
	in   *input
	dir  string
	args []string // of the daemon most recently started
}

func newSite(ws *workspace, w *workload, seed int64, s sizes) (*site, error) {
	st := &site{ws: ws, w: w, in: w.gen(rand.New(rand.NewSource(seed)), s)}
	var err error
	if st.dir, err = os.MkdirTemp(ws.tmp, w.name+"-"); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(st.dir, "program.dl"), []byte(st.in.program), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(st.dir, st.in.csvRel+".csv"), st.in.csv, 0o644); err != nil {
		return nil, err
	}
	return st, nil
}

// setUp is what an operator does to bring the workload's database into
// service: ingest the CSV into a binary snapshot, execute the daemon on it,
// and wait for a correct answer on every template. It returns the daemon and
// how long that took.
func (st *site) setUp(n int) (*daemon, time.Duration, error) {
	start := time.Now()
	snap := filepath.Join(st.dir, fmt.Sprintf("%s-%d.snap", st.in.csvRel, n))
	if err := st.ws.ingest(filepath.Join(st.dir, st.in.csvRel+".csv"), st.in.csvRel, snap); err != nil {
		return nil, 0, err
	}
	st.args = append([]string{"-program", filepath.Join(st.dir, "program.dl"), "-facts", snap}, st.w.flags...)
	if st.w.wal {
		st.args = append(st.args, "-wal-dir", filepath.Join(st.dir, fmt.Sprintf("wal-%d", n)))
	}
	d, err := st.boot(fmt.Sprintf("daemon-%d.log", n), st.in.ready)
	return d, time.Since(start), err
}

// boot executes the daemon with the current arguments and returns once every
// probe has been answered correctly.
func (st *site) boot(logName string, probes []op) (*daemon, error) {
	d, err := st.ws.start(filepath.Join(st.dir, logName), st.args...)
	if err != nil {
		return nil, err
	}
	c := &conn{addr: d.addr}
	defer c.close()
	deadline := time.Now().Add(60 * time.Second)
	for _, p := range probes {
		for {
			status, body, err := c.roundTrip("POST", p.path(), p.body)
			if err == nil {
				if _, err = p.check(status, body); err == nil {
					break
				}
				d.stop()
				return nil, fmt.Errorf("first answer: %w", err)
			}
			if err := d.exited(); err != nil {
				return nil, err
			}
			if time.Now().After(deadline) {
				d.stop()
				return nil, fmt.Errorf("daemon not answering after 60s: %w", err)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	return d, nil
}

// round is one measured stretch of traffic and the calibration before it.
type round struct {
	calib     time.Duration // the faster of the readings before and after
	wall, cpu time.Duration
	t         *tally
	lag       []time.Duration
}

func (r *round) ops() int { return len(r.t.query) + len(r.t.write) }

// scale is what a timing of this round is multiplied by to read as it would
// at the machine's reference speed.
func (r *round) scale() float64 { return float64(calibReference) / float64(r.calib) }

// endToEnd is everything the untraced run against the daemon measured.
type endToEnd struct {
	setUps     []time.Duration
	setUpCalib time.Duration // the faster of the readings before and after the set-ups
	rounds     []round
	discarded  int
	attempted  int
	failed     int
	failures   []string
	peakRSS    int64
	restart    time.Duration
	after      map[string]float64 // /metrics after the rounds
	scraped    map[string]float64 // the same minus /metrics before them

	strategies []string // what each template runs as after the rounds
}

func (e *endToEnd) fail(format string, args ...any) {
	e.failed++
	e.failures = append(e.failures, fmt.Sprintf(format, args...))
}

// perRound gives f of every round.
func (e *endToEnd) perRound(f func(*round) float64) []float64 {
	v := make([]float64, len(e.rounds))
	for i := range e.rounds {
		v[i] = f(&e.rounds[i])
	}
	return v
}

// lowest and highest combine per-round values into the one reported: the
// first quartile of a value that is better when lower, the third of one that
// is better when higher. Interference on a shared machine only ever makes a
// round worse, so the quartile on the good side moves far less from run to
// run than the median does, while a change that slows every request down moves
// every round and with them the quartile.
func lowest(values []float64) float64 {
	q1, _, _ := quartiles(values)
	return q1
}

func highest(values []float64) float64 {
	_, _, q3 := quartiles(values)
	return q3
}

// scaled gives f of every round at the reference speed of the machine.
func (e *endToEnd) scaled(f func(*round) float64) []float64 {
	return e.perRound(func(r *round) float64 { return f(r) * r.scale() })
}

func (e *endToEnd) queryP50() float64 {
	return lowest(e.scaled(func(r *round) float64 { return millis(percentile(r.t.query, 0.50)) }))
}

// run sets the daemon up setUps times, keeps the last, and measures the
// workload on it for about the given time, split into rounds.
func (st *site) run(measure time.Duration, setUps int) (*endToEnd, error) {
	e := &endToEnd{}
	cal := newCalibration()
	cal.run()
	e.setUpCalib = cal.run()
	var d *daemon
	for n := 0; n < setUps; n++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stopping daemon: %w", err)
			}
		}
		var took time.Duration
		var err error
		if d, took, err = st.setUp(n); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		e.setUps = append(e.setUps, took)
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()

	last := cal.run()
	if last < e.setUpCalib {
		e.setUpCalib = last
	}

	cl := newClient(d.addr, st.in.ops, st.w.conns)
	defer cl.close()
	var wt *watcher
	if st.in.writes != nil {
		wt = startWatcher(d.addr, "tc(?, Y)", watchedArg)
		defer wt.stop()
		if !wt.await(1, 10*time.Second) {
			return nil, fmt.Errorf("/v1/watch sent no reset within 10s")
		}
	}
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}

	each := measure / rounds
	warm, _ := cl.run(each / 10)
	e.absorb(warm)
	if wt != nil {
		wt.drain()
	}
	last = cal.run()
	one := func() (round, error) {
		r := round{calib: last}
		cpu0, err := d.cpu()
		if err != nil {
			return r, err
		}
		r.t, r.wall = cl.run(each)
		cpu1, err := d.cpu()
		if err != nil {
			return r, err
		}
		r.cpu = cpu1 - cpu0
		// The reading after this round is also the one before the next.
		if last = cal.run(); last < r.calib {
			r.calib = last
		}
		if wt != nil && len(r.t.sent) > 0 {
			if !wt.await(r.t.sent[len(r.t.sent)-1].epoch, 5*time.Second) {
				e.attempted++
				e.fail("subscriber never saw epoch %d", r.t.sent[len(r.t.sent)-1].epoch)
			}
			r.lag = lags(r.t.sent, wt.drain())
		}
		e.absorb(r.t)
		if r.ops() == 0 {
			return r, fmt.Errorf("a round completed no correct operation: %v", e.failures)
		}
		return r, nil
	}
	for i := 0; i < rounds; i++ {
		r, err := one()
		if err != nil {
			return nil, err
		}
		e.rounds = append(e.rounds, r)
	}
	// A round measured while the machine was more than calibTolerance off its
	// median speed is measured again.
	for ; e.discarded < maxReruns; e.discarded++ {
		med := median(e.perRound(func(r *round) float64 { return float64(r.calib) }))
		worst, off := -1, calibTolerance
		for i := range e.rounds {
			if dev := math.Abs(float64(e.rounds[i].calib)-med) / med; dev > off {
				worst, off = i, dev
			}
		}
		if worst < 0 {
			break
		}
		r, err := one()
		if err != nil {
			return nil, err
		}
		e.rounds[worst] = r
	}

	for i := range st.in.ready {
		e.strategies = append(e.strategies, st.in.ready[i].template+" -> "+strategyOf(d.addr, &st.in.ready[i]))
	}
	if e.peakRSS, err = d.peakRSS(); err != nil {
		return nil, err
	}
	if e.after, err = d.scrape(); err != nil {
		return nil, err
	}
	e.scraped = make(map[string]float64, len(e.after))
	for k, v := range e.after {
		e.scraped[k] = v - before[k]
	}
	e.attempted++
	if n := e.after["chainlogd_rejected_total"]; n != 0 {
		e.fail("%v requests were refused with 429 at %d connections", n, st.w.conns)
	}
	if wt != nil {
		if d, err = st.checkEndState(e, d, cl, wt); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *endToEnd) absorb(t *tally) {
	e.attempted += t.attempted
	e.failed += t.failed
	e.failures = append(e.failures, t.failures...)
}

// checkEndState is the write-watch acceptance: the subscriber's accumulated
// deltas and the store recovered from the write-ahead log must both equal the
// oracle's replay of exactly the acknowledged writes, and the view must have
// been maintained, never recomputed. Each check is one attempted operation.
// It stops the daemon, restarts it on the same log and returns the new one,
// or none if the restarted daemon did not come back with the right answer.
func (st *site) checkEndState(e *endToEnd, d *daemon, cl *client, wt *watcher) (*daemon, error) {
	root := reach(st.in.writes.stateAfter(cl.acked).adjacency(), watchedArg)
	want := digestOfColumn(root)

	e.attempted++
	got, err := wt.stop()
	switch {
	case err != nil:
		e.fail("/v1/watch: %v", err)
	case got != want:
		e.fail("subscriber accumulated %d rows (sum %x), oracle says %d rows (sum %x) after %d writes", got.rows, got.sum, want.rows, want.sum, cl.acked)
	}

	e.attempted++
	if n := e.scraped["chainlog_view_recomputed_total"]; n != 0 {
		e.fail("the watched view was recomputed %v times instead of maintained", n)
	}

	cl.close()
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping daemon: %w", err)
	}
	e.attempted++
	start := time.Now()
	d, err = st.boot("daemon-restart.log", []op{queryOp("tc(?, Y)", watchedArg, "", want)})
	if err != nil {
		e.fail("restart from the write-ahead log after %d acknowledged writes: %v", cl.acked, err)
		return nil, nil
	}
	e.restart = time.Since(start)
	return d, nil
}

// strategyOf asks the daemon which strategy a read is evaluated by right now.
func strategyOf(addr string, o *op) string {
	c := &conn{addr: addr}
	defer c.close()
	_, body, err := c.roundTrip("POST", o.path(), o.queryBody(true))
	if err != nil {
		return err.Error()
	}
	var resp struct {
		Result struct {
			Stats struct {
				Strategy string `json:"strategy"`
			} `json:"stats"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err.Error()
	}
	return resp.Result.Stats.Strategy
}
