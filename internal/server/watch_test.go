package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// openWatch subscribes to /v1/watch and returns the response plus a
// channel of decoded feed lines (closed when the stream ends).
func openWatch(t *testing.T, base string, params url.Values) (*http.Response, <-chan WatchLine) {
	t.Helper()
	resp, err := http.Get(base + "/v1/watch?" + params.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("watch: status %d: %s", resp.StatusCode, body)
	}
	t.Cleanup(func() { resp.Body.Close() })
	ch := make(chan WatchLine, 64)
	go func() {
		defer close(ch)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var ln WatchLine
			if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
				return
			}
			ch <- ln
		}
	}()
	return resp, ch
}

func nextLine(t *testing.T, ch <-chan WatchLine) (WatchLine, bool) {
	t.Helper()
	select {
	case ln, ok := <-ch:
		return ln, ok
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a watch line")
	}
	panic("unreachable")
}

// nextEvent skips heartbeats and returns the next reset or delta line.
func nextEvent(t *testing.T, ch <-chan WatchLine) WatchLine {
	t.Helper()
	for {
		ln, ok := nextLine(t, ch)
		if !ok {
			t.Fatal("watch stream closed while waiting for an event")
		}
		if ln.Head == 0 {
			return ln
		}
	}
}

func watchParams(template string, args ...string) url.Values {
	v := url.Values{"template": {template}}
	for _, a := range args {
		v.Add("arg", a)
	}
	return v
}

func TestWatchStreamsDeltas(t *testing.T) {
	_, ts, db := newTestServer(t, familyProgram, Config{})
	_, ch := openWatch(t, ts.URL, watchParams("ancestor(?, Y)", "bart"))

	reset := nextEvent(t, ch)
	if !reset.Reset || reset.Gen == 0 {
		t.Fatalf("first line is not a reset: %+v", reset)
	}
	if !reflect.DeepEqual(reset.Vars, []string{"Y"}) {
		t.Fatalf("vars %v", reset.Vars)
	}
	if !reflect.DeepEqual(reset.Rows, [][]string{{"abe"}, {"homer"}, {"orville"}}) {
		t.Fatalf("reset rows %v", reset.Rows)
	}

	db.Assert("parent", "orville", "zeke")
	delta := nextEvent(t, ch)
	if delta.Reset || !reflect.DeepEqual(delta.Added, [][]string{{"zeke"}}) || len(delta.Removed) != 0 {
		t.Fatalf("delta after assert: %+v", delta)
	}
	if delta.Epoch <= reset.Epoch {
		t.Fatalf("delta epoch %d not past reset epoch %d", delta.Epoch, reset.Epoch)
	}

	db.Retract("parent", "homer", "abe")
	delta = nextEvent(t, ch)
	want := [][]string{{"abe"}, {"orville"}, {"zeke"}}
	if !reflect.DeepEqual(delta.Removed, want) {
		t.Fatalf("delta after cut: %+v, want removed %v", delta, want)
	}
}

// A query on a constant the database has never seen answers empty
// without interning it, but a watch must intern it: the view has to see
// that constant's later facts.
func TestWatchUnknownConstantSeesLaterAssert(t *testing.T) {
	_, ts, db := newTestServer(t, familyProgram, Config{})
	_, ch := openWatch(t, ts.URL, watchParams("ancestor(?, Y)", "maggie"))
	if reset := nextEvent(t, ch); !reset.Reset || len(reset.Rows) != 0 {
		t.Fatalf("first line: %+v, want an empty reset", reset)
	}
	db.Assert("parent", "maggie", "homer")
	delta := nextEvent(t, ch)
	if want := [][]string{{"abe"}, {"homer"}, {"orville"}}; !reflect.DeepEqual(delta.Added, want) {
		t.Fatalf("delta after assert: %+v, want added %v", delta, want)
	}
}

// Reconnecting with the heartbeat cursor replays exactly the missed
// deltas — nothing already delivered, nothing skipped.
func TestWatchResumeNoDuplicates(t *testing.T) {
	_, ts, db := newTestServer(t, familyProgram, Config{})
	resp, ch := openWatch(t, ts.URL, watchParams("ancestor(?, Y)", "bart"))

	reset := nextEvent(t, ch)
	db.Assert("parent", "orville", "zeke")
	delta := nextEvent(t, ch)
	if !reflect.DeepEqual(delta.Added, [][]string{{"zeke"}}) {
		t.Fatalf("live delta: %+v", delta)
	}
	cursor, gen := delta.Epoch, reset.Gen
	resp.Body.Close() // client goes away holding (cursor, gen)

	db.Assert("parent", "zeke", "yaya") // missed while disconnected

	params := watchParams("ancestor(?, Y)", "bart")
	params.Set("from", formatUint(cursor))
	params.Set("gen", formatUint(gen))
	_, ch2 := openWatch(t, ts.URL, params)
	ln := nextEvent(t, ch2)
	if ln.Reset {
		t.Fatalf("in-window resume forced a reset: %+v", ln)
	}
	if !reflect.DeepEqual(ln.Added, [][]string{{"yaya"}}) {
		t.Fatalf("resume replayed %+v, want only the missed delta", ln)
	}
	// A caught-up cursor resumes to heartbeats alone.
	params.Set("from", formatUint(ln.Epoch))
	_, ch3 := openWatch(t, ts.URL, params)
	hb, ok := nextLine(t, ch3)
	if !ok || hb.Head != ln.Epoch || hb.Reset || len(hb.Added) != 0 {
		t.Fatalf("caught-up resume: %+v", hb)
	}
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

// A rule load recomputes the view and bumps its generation: the open
// stream sees an in-band reset, and a reconnect with the stale cursor
// is refused a delta resume and snapshots instead.
func TestWatchRuleLoadResets(t *testing.T) {
	_, ts, db := newTestServer(t, `
		anc(X, Y) :- parent(X, Y).
		parent(a, b). parent(b, c).
	`, Config{})
	_, ch := openWatch(t, ts.URL, watchParams("anc(a, Y)"))
	reset := nextEvent(t, ch)
	if !reflect.DeepEqual(reset.Rows, [][]string{{"b"}}) {
		t.Fatalf("initial rows %v", reset.Rows)
	}

	if err := db.LoadProgram(`anc(X, Z) :- parent(X, Y), anc(Y, Z).`); err != nil {
		t.Fatal(err)
	}
	ln := nextEvent(t, ch)
	if !ln.Reset || ln.Gen == reset.Gen {
		t.Fatalf("rule load did not reset in-band: %+v", ln)
	}
	if !reflect.DeepEqual(ln.Rows, [][]string{{"b"}, {"c"}}) {
		t.Fatalf("post-rule rows %v", ln.Rows)
	}

	params := watchParams("anc(a, Y)")
	params.Set("from", formatUint(reset.Epoch))
	params.Set("gen", formatUint(reset.Gen))
	_, ch2 := openWatch(t, ts.URL, params)
	if ln := nextEvent(t, ch2); !ln.Reset {
		t.Fatalf("stale-generation cursor resumed without a reset: %+v", ln)
	}
}

// Subscribers of the same (template, args) share one live view, and the
// last unsubscribe closes it.
func TestWatchSharedViewRefcount(t *testing.T) {
	_, ts, db := newTestServer(t, familyProgram, Config{WatchLinger: -1})
	params := watchParams("ancestor(?, Y)", "bart")
	r1, ch1 := openWatch(t, ts.URL, params)
	nextEvent(t, ch1)
	r2, ch2 := openWatch(t, ts.URL, params)
	nextEvent(t, ch2)
	if got := db.Views(); got != 1 {
		t.Fatalf("two subscribers hold %d views, want 1 shared", got)
	}
	// A different binding vector is a different view.
	r3, ch3 := openWatch(t, ts.URL, watchParams("ancestor(?, Y)", "lisa"))
	nextEvent(t, ch3)
	if got := db.Views(); got != 2 {
		t.Fatalf("Views = %d, want 2", got)
	}
	r1.Body.Close()
	r2.Body.Close()
	r3.Body.Close()
	waitFor(t, "views to close", func() bool { return db.Views() == 0 })
}

// With a linger window, the last unsubscribe keeps the view warm for a
// reconnect, then the window closes it.
func TestWatchLingerExpires(t *testing.T) {
	_, ts, db := newTestServer(t, familyProgram, Config{WatchLinger: 600 * time.Millisecond})
	resp, ch := openWatch(t, ts.URL, watchParams("ancestor(?, Y)", "bart"))
	nextEvent(t, ch)
	resp.Body.Close()
	waitFor(t, "handler to release its subscription", func() bool {
		select {
		case _, ok := <-ch:
			return !ok
		default:
			return false
		}
	})
	if db.Views() != 1 {
		t.Fatalf("view closed before the linger window; Views = %d", db.Views())
	}
	waitFor(t, "lingering view to expire", func() bool { return db.Views() == 0 })
}

// Watch connections are long-lived and must not occupy in-flight
// limiter slots: with MaxInFlight=1 and open watch + replicate streams,
// queries and mutations still get the one slot.
func TestWatchExemptFromLimiter(t *testing.T) {
	_, ts, _ := newPrimary(t, Config{MaxInFlight: 1})
	_, ch := openWatch(t, ts.URL, watchParams("ancestor(?, Y)", "bart"))
	nextEvent(t, ch) // the stream is up and inside its long-poll

	feed, err := http.Get(ts.URL + "/v1/replicate")
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Body.Close()
	if feed.StatusCode != http.StatusOK {
		t.Fatalf("replicate: status %d", feed.StatusCode)
	}

	status, qr := queryRows(t, ts.URL, QueryRequest{Query: "ancestor(bart, Y)"})
	if status != http.StatusOK {
		t.Fatalf("query under open streams: status %d, want 200", status)
	}
	if len(qr.Result.Rows) != 3 {
		t.Fatalf("rows %v", qr.Result.Rows)
	}
	if status, _, _ := assertFact(t, ts.URL, "parent", "orville", "zeke"); status != http.StatusOK {
		t.Fatalf("assert under open streams: status %d, want 200", status)
	}
	if delta := nextEvent(t, ch); !reflect.DeepEqual(delta.Added, [][]string{{"zeke"}}) {
		t.Fatalf("watch missed the mutation: %+v", delta)
	}
}

// Draining must wake long-poll watch connections immediately rather
// than holding Shutdown open for a replicate window.
func TestWatchDrainCloses(t *testing.T) {
	s, ts, _ := newTestServer(t, familyProgram, Config{})
	_, ch := openWatch(t, ts.URL, watchParams("ancestor(?, Y)", "bart"))
	nextEvent(t, ch)
	s.SetDraining(true)
	deadline := time.After(3 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return // stream ended promptly
			}
		case <-deadline:
			t.Fatal("watch stream survived draining")
		}
	}
}

func TestWatchBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, familyProgram, Config{})
	for _, tc := range []struct {
		name, query string
		want        int
	}{
		{"missing template", "", http.StatusBadRequest},
		{"from without gen", "template=ancestor(%3F,Y)&arg=bart&from=3", http.StatusBadRequest},
		{"malformed from", "template=ancestor(%3F,Y)&arg=bart&from=x&gen=1", http.StatusBadRequest},
		{"bad template", "template=ancestor(", http.StatusBadRequest},
		{"arity mismatch", "template=ancestor(%3F,Y)", http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + "/v1/watch?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// The instrumentation wrapper must propagate Flush to the underlying
// writer — streamed endpoints (watch, replicate) depend on it — and
// must tolerate writers with no flush support.
func TestStatusRecorderFlusherPropagation(t *testing.T) {
	fw := &flushRecorder{ResponseWriter: httptest.NewRecorder()}
	rec := &statusRecorder{ResponseWriter: fw, status: http.StatusOK}
	var w http.ResponseWriter = rec
	fl, ok := w.(http.Flusher)
	if !ok {
		t.Fatal("statusRecorder does not expose http.Flusher")
	}
	fl.Flush()
	if fw.flushes != 1 {
		t.Fatalf("flushes = %d, want 1 forwarded", fw.flushes)
	}
	// No panic when the underlying writer cannot flush.
	bare := &statusRecorder{ResponseWriter: nonFlusher{httptest.NewRecorder()}, status: http.StatusOK}
	bare.Flush()
}

type flushRecorder struct {
	http.ResponseWriter
	flushes int
}

func (f *flushRecorder) Flush() { f.flushes++ }

// nonFlusher hides the recorder's Flush method.
type nonFlusher struct{ http.ResponseWriter }

// A replica serves the watch feed off its applied WAL tail: deltas
// committed on the primary stream to subscribers of the replica.
func TestWatchOnReplicaTailsPrimary(t *testing.T) {
	_, primary, _ := newPrimary(t, Config{})
	_, replica, rdb := newReplica(t, primary.URL, Config{})

	_, ch := openWatch(t, replica.URL, watchParams("ancestor(?, Y)", "bart"))
	reset := nextEvent(t, ch)
	if !reflect.DeepEqual(reset.Rows, [][]string{{"abe"}, {"homer"}, {"orville"}}) {
		t.Fatalf("replica reset rows %v", reset.Rows)
	}

	status, mr, _ := assertFact(t, primary.URL, "parent", "orville", "zeke")
	if status != http.StatusOK {
		t.Fatalf("primary assert: status %d", status)
	}
	delta := nextEvent(t, ch)
	if !reflect.DeepEqual(delta.Added, [][]string{{"zeke"}}) {
		t.Fatalf("replica watch delta: %+v", delta)
	}
	if delta.Epoch != mr.Epoch {
		t.Fatalf("replica delta epoch %d, primary committed %d", delta.Epoch, mr.Epoch)
	}
	waitFor(t, "replica to reach the primary epoch", func() bool {
		return rdb.FactEpoch() == mr.Epoch
	})
}
