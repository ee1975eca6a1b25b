package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"chainlog"
)

// wideHandler serves the wide-answer workload's data: the complete binary
// tree of depth 14 (t1 the root, t(i/2) the parent of t(i)), ingested from
// CSV, written as a snapshot and opened mapped through OpenFiles, under
// the transitive closure tc.
func wideHandler(tb testing.TB) http.Handler {
	tb.Helper()
	const n = 1<<14 - 1
	var csv bytes.Buffer
	for _, i := range rand.New(rand.NewSource(1)).Perm(n - 1) {
		fmt.Fprintf(&csv, "t%d,t%d\n", (i+2)/2, i+2)
	}
	src := chainlog.NewDB()
	if _, err := src.IngestCSV(&csv, "e"); err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	snap, prog := filepath.Join(dir, "tree.snap"), filepath.Join(dir, "tc.dl")
	if err := src.WriteSnapshot(snap); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(prog, []byte("tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\n"), 0o644); err != nil {
		tb.Fatal(err)
	}
	db, mapped, err := chainlog.OpenFiles(prog, snap)
	if err != nil || !mapped {
		tb.Fatalf("OpenFiles: mapped %v, err %v", mapped, err)
	}
	tb.Cleanup(func() { db.Close() })
	s, err := New(Config{DB: db, Logf: tb.Logf})
	if err != nil {
		tb.Fatal(err)
	}
	return s.Handler()
}

// discardWriter is a ResponseWriter that keeps the status and the body
// size only, so a measurement of the handler counts none of its own.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// wideRequests returns a function serving tc(?, Y) bound to t4, t5, t6
// and t7 in turn, 4,094 rows each, and failing on anything but a 200 of
// the reply's size.
func wideRequests(tb testing.TB) func() {
	h := wideHandler(tb)
	var bodies [4]string
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"template":"tc(?, Y)","args":["t%d"]}`, 4+i)
	}
	w := &discardWriter{h: http.Header{}}
	var body strings.Reader
	k := 0
	return func() {
		body.Reset(bodies[k%4])
		k++
		req, _ := http.NewRequest("POST", "/v1/query", &body)
		clear(w.h)
		w.status, w.n = 0, 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.n < 40_000 {
			tb.Fatalf("status %d, %d bytes", w.status, w.n)
		}
	}
}

// BenchmarkQueryHandlerWide is the layer evidence for rows that stay
// symbols until the reply: the real /v1/query handler on wide-answer's
// tree, from the request body to the last byte of the reply.
func BenchmarkQueryHandlerWide(b *testing.B) {
	serve := wideRequests(b)
	serve()
	b.ReportAllocs()
	for b.Loop() {
		serve()
	}
}

// TestQueryHandlerWideAllocs pins what a wide /v1/query costs in memory:
// 4,094 names go from the symbol table into a pooled reply buffer, so the
// bytes a request allocates are the traversal's answer slice and the
// request's own, not a string per row: about 19 KB per request on
// linux/amd64 with go1.24, where rendering, sorting and encoding the rows
// as strings took about 188 KB.
func TestQueryHandlerWideAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const maxBytes = 24 << 10
	serve := wideRequests(t)
	serve()
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		serve()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > maxBytes {
		t.Errorf("a wide /v1/query allocates %d bytes, want <= %d", got, maxBytes)
	}
}
