package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"chainlog/internal/wal"
)

// feeds are the two long-poll feeds, each opened on a fresh primary
// caught up to its boot state: the contract tests below run over both.
var feeds = []struct {
	name string
	path func(s *Server) string
}{
	{"replicate", func(s *Server) string { return "/v1/replicate?from=" + formatUint(s.db.FactEpoch()) }},
	{"watch", func(*Server) string { return "/v1/watch?" + watchParams("ancestor(?, Y)", "bart").Encode() }},
}

// openFeed GETs a feed and returns the response plus a channel of its
// raw lines, newline included (closed when the stream ends).
func openFeed(t *testing.T, url string) (*http.Response, <-chan string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("feed %s: status %d: %s", url, resp.StatusCode, body)
	}
	ch := make(chan string, 64)
	go func() {
		defer close(ch)
		br := bufio.NewReader(resp.Body)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			ch <- line
		}
	}()
	return resp, ch
}

func nextRaw(t *testing.T, ch <-chan string) string {
	t.Helper()
	select {
	case ln, ok := <-ch:
		if !ok {
			t.Fatal("feed ended while waiting for a line")
		}
		return ln
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a feed line")
	}
	panic("unreachable")
}

// Every way a long poll ends — the window elapses, the server drains,
// the client leaves — closes the stream within 3s and returns the
// request's in-flight slot.
func TestFeedEndings(t *testing.T) {
	for _, feed := range feeds {
		for _, end := range []struct {
			name   string
			window time.Duration
			end    func(*Server, *http.Response)
		}{
			{"window", 200 * time.Millisecond, func(*Server, *http.Response) {}},
			{"drain", 0, func(s *Server, _ *http.Response) { s.SetDraining(true) }},
			{"disconnect", 0, func(_ *Server, resp *http.Response) { resp.Body.Close() }},
		} {
			t.Run(feed.name+"/"+end.name, func(t *testing.T) {
				s, ts, _ := newPrimary(t, Config{ReplicateWindow: end.window})
				resp, lines := openFeed(t, ts.URL+feed.path(s))
				// A heartbeat means the first drain is done: the handler is
				// now waiting.
				for {
					if strings.Contains(nextRaw(t, lines), `"head":`) {
						break
					}
				}
				deadline := time.Now().Add(3 * time.Second)
				end.end(s, resp)
				for ended := false; !ended; {
					select {
					case _, ok := <-lines:
						ended = !ok
					case <-time.After(time.Until(deadline)):
						t.Fatal("stream still open 3s after its end")
					}
				}
				for s.inFlight.Value() != 0 {
					if time.Now().After(deadline) {
						t.Fatalf("in-flight requests = %d 3s after the stream ended", s.inFlight.Value())
					}
					time.Sleep(5 * time.Millisecond)
				}
			})
		}
	}
}

// A cursor below the truncation horizon is refused before any line: a
// 410 with a JSON error body, not an NDJSON stream.
func TestReplicateTruncatedLogIsGone(t *testing.T) {
	pl, err := wal.Open(wal.Options{Dir: t.TempDir(), SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	ps, primary, _ := newPrimary(t, Config{WAL: pl})
	for i := 0; i < 10; i++ {
		assertFact(t, primary.URL, "parent", fmt.Sprintf("kid%d", i), "bart")
	}
	if _, err := ps.writeWALSnapshot(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(primary.URL + "/v1/replicate?from=0")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("status %d, want 410: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" || strings.Count(string(body), "\n") != 1 {
		t.Fatalf("body %q is not one JSON error (%v)", body, err)
	}
}

// The exact bytes of each feed over a fixed schedule: one mutation
// before connecting and one while long-polling.
func TestFeedWireBytes(t *testing.T) {
	t.Run("replicate", func(t *testing.T) {
		_, primary, db := newPrimary(t, Config{})
		base := db.FactEpoch()
		assertFact(t, primary.URL, "parent", "maggie", "homer")
		resp, lines := openFeed(t, fmt.Sprintf("%s/v1/replicate?from=%d", primary.URL, base))
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("Content-Type %q", ct)
		}
		got := nextRaw(t, lines) + nextRaw(t, lines)
		assertFact(t, primary.URL, "parent", "rod", "ned")
		got += nextRaw(t, lines) + nextRaw(t, lines)
		want := fmt.Sprintf(`{"epoch":%[1]d,"ops":[{"pred":"parent","args":["maggie","homer"]}]}
{"head":%[1]d}
{"epoch":%[2]d,"ops":[{"pred":"parent","args":["rod","ned"]}]}
{"head":%[2]d}
`, base+1, base+2)
		if got != want {
			t.Fatalf("replicate feed:\n%s\nwant:\n%s", got, want)
		}
	})
	t.Run("watch", func(t *testing.T) {
		_, ts, db := newTestServer(t, familyProgram, Config{})
		resp, lines := openFeed(t, ts.URL+"/v1/watch?"+watchParams("ancestor(?, Y)", "bart").Encode())
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("Content-Type %q", ct)
		}
		got := nextRaw(t, lines)
		var reset WatchLine
		if err := json.Unmarshal([]byte(got), &reset); err != nil {
			t.Fatal(err)
		}
		got += nextRaw(t, lines)
		db.Assert("parent", "orville", "zeke")
		got += nextRaw(t, lines) + nextRaw(t, lines)
		e, g := reset.Epoch, reset.Gen
		want := fmt.Sprintf(`{"reset":true,"epoch":%[1]d,"gen":%[3]d,"vars":["Y"],"rows":[["abe"],["homer"],["orville"]]}
{"gen":%[3]d,"head":%[1]d}
{"epoch":%[2]d,"added":[["zeke"]]}
{"gen":%[3]d,"head":%[2]d}
`, e, e+1, g)
		if got != want {
			t.Fatalf("watch feed:\n%s\nwant:\n%s", got, want)
		}
	})
}

// Two binding vectors that join to the same string are still two
// views: ["a\x00b", "c"] must not attach to ["a", "b\x00c"]'s view, and
// an argument vector of the wrong arity must not reach a view at all.
func TestWatchBindingsDoNotCollide(t *testing.T) {
	_, ts, db := newTestServer(t, "e(x, y).", Config{})
	_, ch1 := openWatch(t, ts.URL, watchParams("e(?, ?)", "a\x00b", "c"))
	if ln := nextEvent(t, ch1); !ln.Reset || len(ln.Rows) != 0 {
		t.Fatalf("first binding opened with %+v, want an empty reset", ln)
	}
	db.Assert("e", "a\x00b", "c")
	if ln := nextEvent(t, ch1); !reflect.DeepEqual(ln.Added, [][]string{{}}) {
		t.Fatalf("first binding after the assert: %+v", ln)
	}
	_, ch2 := openWatch(t, ts.URL, watchParams("e(?, ?)", "a", "b\x00c"))
	if ln := nextEvent(t, ch2); !ln.Reset || len(ln.Rows) != 0 {
		t.Fatalf("second binding opened with %+v, want its own empty reset", ln)
	}
	if got := db.Views(); got != 2 {
		t.Fatalf("two bindings hold %d views, want 2", got)
	}
	resp, err := http.Get(ts.URL + "/v1/watch?" + watchParams("e(?, ?)", "a\x00b\x00c").Encode())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("one argument for two parameters: status %d, want 400", resp.StatusCode)
	}
}
