package main

// The closed-loop client: persistent HTTP/1.1 connections, one goroutine
// each, every reply checked against the oracle.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// conn is one persistent connection. It writes requests by hand and reads
// replies with http.ReadResponse: no transport goroutines compete with the
// daemon for the two cores, and the latency clock brackets exactly the
// request's first byte out and the body's last byte in.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	req  []byte
	body bytes.Buffer
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// roundTrip sends one request and reads the whole reply. The returned body is
// valid until the next call. Any transport error closes the connection; the
// next call dials again.
func (c *conn) roundTrip(method, path string, body []byte) (int, []byte, error) {
	if c.c == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.c, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	c.req = append(c.req[:0], method...)
	c.req = append(c.req, ' ')
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, c.addr...)
	if body != nil {
		c.req = append(c.req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		c.req = strconv.AppendInt(c.req, int64(len(body)), 10)
	}
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(c.req, body...)
	if _, err := c.c.Write(c.req); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, c.body.Bytes(), err
}

// check compares a reply with what the oracle expects of the op.
func (o *op) check(status int, body []byte) (epoch uint64, err error) {
	if status != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	if o.write {
		var m struct {
			Asserted, Retracted int
			Epoch               uint64
		}
		if err := json.Unmarshal(body, &m); err != nil {
			return 0, err
		}
		if m.Asserted != o.asserted || m.Retracted != o.retracted {
			return m.Epoch, fmt.Errorf("delta changed +%d -%d facts, oracle says +%d -%d", m.Asserted, m.Retracted, o.asserted, o.retracted)
		}
		return m.Epoch, nil
	}
	got, err := digestOfBody(body)
	if err != nil {
		return 0, err
	}
	if got != o.want {
		return 0, fmt.Errorf("%s %v: %d rows (sum %x), oracle says %d rows (sum %x)", o.template, o.args, got.rows, got.sum, o.want.rows, o.want.sum)
	}
	return 0, nil
}

func (o *op) path() string {
	if o.write {
		return "/v1/delta"
	}
	return "/v1/query"
}

// stamp is when something happened to the write that produced an epoch.
type stamp struct {
	epoch uint64
	at    time.Time
}

// tally is what one goroutine saw during one round.
type tally struct {
	query, write      []time.Duration // latencies of correct replies
	sent              []stamp         // when each acknowledged write started
	attempted, failed int
	failures          []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(u *tally) {
	t.query = append(t.query, u.query...)
	t.write = append(t.write, u.write...)
	t.sent = append(t.sent, u.sent...)
	t.attempted += u.attempted
	t.failed += u.failed
	t.failures = append(t.failures, u.failures...)
}

// client is the load generator for one daemon: the connections and where each
// stands in the op sequence. Connection g of n runs ops g, g+n, g+2n, ... and
// wraps around, so the sequence is deterministic per connection and continues
// from round to round.
type client struct {
	ops    []op
	conns  []*conn
	cursor []int
	paired bool // ops alternate write, read: stop only before a write
	acked  int  // writes acknowledged so far
}

func newClient(addr string, ops []op, conns int) *client {
	cl := &client{ops: ops, cursor: make([]int, conns), paired: ops[0].write}
	for g := 0; g < conns; g++ {
		cl.conns = append(cl.conns, &conn{addr: addr})
		cl.cursor[g] = g
	}
	return cl
}

func (cl *client) close() {
	for _, c := range cl.conns {
		c.close()
	}
}

// run drives every connection until the deadline and returns what they saw.
// On write-watch a connection stops only before a write, so every write is
// followed by its read.
func (cl *client) run(d time.Duration) (*tally, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	tallies := make([]tally, len(cl.conns))
	var wg sync.WaitGroup
	for g := range cl.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t, c := &tallies[g], cl.conns[g]
			for {
				o := &cl.ops[cl.cursor[g]%len(cl.ops)]
				if (o.write || !cl.paired) && !time.Now().Before(deadline) {
					return
				}
				cl.cursor[g] += len(cl.conns)
				t.attempted++
				t0 := time.Now()
				status, body, err := c.roundTrip("POST", o.path(), o.body)
				lat := time.Since(t0)
				if err != nil {
					t.fail("%s: %v", o.path(), err)
					continue
				}
				epoch, err := o.check(status, body)
				if err != nil {
					t.fail("%v", err)
				}
				switch {
				case o.write && status == http.StatusOK:
					// Acknowledged, whatever the check said: durability is
					// owed for it.
					t.sent = append(t.sent, stamp{epoch, t0})
					if err == nil {
						t.write = append(t.write, lat)
					}
				case err == nil:
					t.query = append(t.query, lat)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	total := &tally{}
	for i := range tallies {
		total.merge(&tallies[i])
	}
	cl.acked += len(total.sent)
	return total, wall
}

// watchLine is one NDJSON line of GET /v1/watch.
type watchLine struct {
	Reset   bool       `json:"reset"`
	Epoch   uint64     `json:"epoch"`
	Gen     uint64     `json:"gen"`
	Rows    [][]string `json:"rows"`
	Added   [][]string `json:"added"`
	Removed [][]string `json:"removed"`
	Head    uint64     `json:"head"`
}

// watcher is the subscriber: one connection holding GET /v1/watch on one
// binding, accumulating the deltas into the answer set they describe and
// noting when each epoch's line arrived.
type watcher struct {
	addr, template, arg string

	mu     sync.Mutex
	nc     net.Conn
	closed bool
	rows   map[string]bool
	seen   []stamp
	head   uint64
	err    error

	done chan struct{}
}

func startWatcher(addr, template, arg string) *watcher {
	w := &watcher{addr: addr, template: template, arg: arg, rows: make(map[string]bool), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		var from, gen uint64
		resume := false
		for {
			err := w.stream(&from, &gen, resume)
			resume = true
			w.mu.Lock()
			closed := w.closed
			if err != nil && !closed {
				w.err = err
			}
			w.mu.Unlock()
			if closed || err != nil {
				return
			}
			// The long-poll window ended: reconnect from the cursor.
		}
	}()
	return w
}

// stream holds one watch connection until the server ends it (nil) or it
// breaks (the error).
func (w *watcher) stream(from, gen *uint64, resume bool) error {
	nc, err := net.Dial("tcp", w.addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	w.mu.Lock()
	w.nc = nc
	closed := w.closed
	w.mu.Unlock()
	if closed {
		return nil
	}
	q := url.Values{"template": {w.template}, "arg": {w.arg}}
	if resume {
		q.Set("from", strconv.FormatUint(*from, 10))
		q.Set("gen", strconv.FormatUint(*gen, 10))
	}
	if _, err := fmt.Fprintf(nc, "GET /v1/watch?%s HTTP/1.1\r\nHost: %s\r\n\r\n", q.Encode(), w.addr); err != nil {
		return err
	}
	br := bufio.NewReader(nc)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/v1/watch: status %d", resp.StatusCode)
	}
	lines := bufio.NewReaderSize(resp.Body, 1<<20)
	for {
		raw, err := lines.ReadBytes('\n')
		at := time.Now()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		var l watchLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return fmt.Errorf("/v1/watch line %q: %w", raw, err)
		}
		w.mu.Lock()
		switch {
		case l.Reset:
			w.rows = make(map[string]bool, len(l.Rows))
			for _, r := range l.Rows {
				w.rows[r[0]] = true
			}
			*from, *gen, w.head = l.Epoch, l.Gen, l.Epoch
		case len(l.Added)+len(l.Removed) == 0: // heartbeat
			*from, *gen, w.head = l.Head, l.Gen, l.Head
		default:
			for _, r := range l.Removed {
				delete(w.rows, r[0])
			}
			for _, r := range l.Added {
				w.rows[r[0]] = true
			}
			w.seen = append(w.seen, stamp{l.Epoch, at})
			*from = l.Epoch
		}
		w.mu.Unlock()
	}
}

// await blocks until the subscriber is caught up through epoch, for at most d.
func (w *watcher) await(epoch uint64, d time.Duration) bool {
	for deadline := time.Now().Add(d); ; time.Sleep(time.Millisecond) {
		w.mu.Lock()
		ok := w.head >= epoch || w.err != nil
		w.mu.Unlock()
		if ok || time.Now().After(deadline) {
			return ok
		}
	}
}

// drain hands over the arrival stamps collected so far.
func (w *watcher) drain() []stamp {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.seen
	w.seen = nil
	return s
}

// stop closes the connection and waits for the goroutine; it returns the
// accumulated answer set and the first error the feed hit.
func (w *watcher) stop() (digest, error) {
	w.mu.Lock()
	w.closed = true
	if w.nc != nil {
		w.nc.Close()
	}
	w.mu.Unlock()
	<-w.done
	var d digest
	for r := range w.rows {
		d.add(r)
	}
	return d, w.err
}

// lags joins send stamps with arrival stamps by epoch: how long after the
// writer started sending a delta the subscriber had read its line.
func lags(sent, seen []stamp) []time.Duration {
	arrived := make(map[uint64]time.Time, len(seen))
	for _, s := range seen {
		arrived[s.epoch] = s.at
	}
	var out []time.Duration
	for _, s := range sent {
		if at, ok := arrived[s.epoch]; ok {
			out = append(out, at.Sub(s.at))
		}
	}
	return out
}
