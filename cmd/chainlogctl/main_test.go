package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"chainlog"
	"chainlog/internal/server"
	"chainlog/internal/wal"
)

const program = `
	ancestor(X, Y) :- parent(X, Y).
	ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
	parent(bart, homer).
	parent(homer, abe).
`

// boot starts an in-process chainlogd-equivalent node and returns its
// base URL plus the server and DB for direct inspection.
func boot(t *testing.T, cfg server.Config) (string, *server.Server, *chainlog.DB) {
	t.Helper()
	db := chainlog.NewDB()
	if err := db.LoadProgram(program); err != nil {
		t.Fatal(err)
	}
	cfg.DB = db
	cfg.Logf = t.Logf
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL, s, db
}

func bootPrimary(t *testing.T) (string, *server.Server, *chainlog.DB) {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return boot(t, server.Config{WAL: l})
}

// ctl runs one chainlogctl invocation, returning exit code and output.
func ctl(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := ctl(t); code != 2 {
		t.Errorf("no-args exit = %d, want 2", code)
	}
	if code, _, _ := ctl(t, "defenestrate"); code != 2 {
		t.Errorf("unknown-command exit = %d, want 2", code)
	}
	if code, _, _ := ctl(t, "status"); code != 1 {
		t.Errorf("status without -nodes exit = %d, want 1", code)
	}
	if code, _, _ := ctl(t, "bootstrap", "-from", "http://x"); code != 1 {
		t.Errorf("bootstrap without -wal-dir exit = %d, want 1", code)
	}
	if code, _, _ := ctl(t, "promote"); code != 1 {
		t.Errorf("promote without -node exit = %d, want 1", code)
	}
}

// assertOverHTTP mutates through the server's commit path (so the WAL
// and the replication feed see the record).
func assertOverHTTP(t *testing.T, baseURL string) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/assert", "application/json",
		strings.NewReader(`{"facts": [{"pred": "parent", "args": ["maggie", "homer"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("assert status %d", resp.StatusCode)
	}
}

func TestStatusTable(t *testing.T) {
	purl, _, pdb := bootPrimary(t)
	assertOverHTTP(t, purl)

	rurl, rs, rdb := boot(t, server.Config{Role: server.RoleReplica, PrimaryURL: purl})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rs.StartReplication(ctx)
	deadline := time.Now().Add(5 * time.Second)
	for rdb.FactEpoch() != pdb.FactEpoch() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	code, out, errOut := ctl(t, "status", "-nodes", purl+","+rurl)
	if code != 0 {
		t.Fatalf("status exit %d, stderr: %s", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("status output has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "primary") || !strings.Contains(lines[2], "replica") {
		t.Fatalf("roles missing from table:\n%s", out)
	}

	// An unreachable node fails the command but still prints a row.
	code, out, _ = ctl(t, "status", "-nodes", purl+",http://127.0.0.1:1")
	if code != 1 || !strings.Contains(out, "unreachable") {
		t.Fatalf("unreachable node: exit %d, out:\n%s", code, out)
	}
}

func TestBootstrapInstallsSnapshot(t *testing.T) {
	purl, _, pdb := bootPrimary(t)
	pdb.Assert("parent", "maggie", "homer")
	want := pdb.FactEpoch()

	dir := t.TempDir()
	code, out, errOut := ctl(t, "bootstrap", "-from", purl, "-wal-dir", dir)
	if code != 0 {
		t.Fatalf("bootstrap exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "installed snapshot") {
		t.Fatalf("bootstrap output: %s", out)
	}
	// A log opened on the directory sees the snapshot at the primary's
	// epoch, and its content restores a working DB.
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	path, epoch, ok := l.Snapshot()
	if !ok || epoch != want || !strings.HasSuffix(path, ".bin") {
		t.Fatalf("installed snapshot: %q, %d, %v (want a .bin at epoch %d)", path, epoch, ok, want)
	}
	db := chainlog.NewDB()
	if err := db.LoadProgram(program); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := db.RestoreFactsAuto(f, epoch); err != nil {
		t.Fatal(err)
	}
	if ans, err := db.Query("ancestor(maggie, Y)"); err != nil || len(ans.Rows) == 0 {
		t.Fatalf("restored bootstrap DB: %+v, %v", ans, err)
	}

	// Re-bootstrapping into a directory already at that epoch refuses to
	// rewind.
	if code, _, errOut := ctl(t, "bootstrap", "-from", purl, "-wal-dir", dir); code != 1 ||
		!strings.Contains(errOut, "refusing to rewind") {
		t.Fatalf("re-bootstrap: exit %d, stderr: %s", code, errOut)
	}
}

// A node that answers /v1/snapshot with anything but a binary body is
// refused before the WAL directory is touched.
func TestBootstrapRefusesTextBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Chainlog-Epoch", "7")
		w.Write([]byte("parent(bart, homer).\n"))
	}))
	defer ts.Close()
	dir := t.TempDir() + "/wal"
	code, _, errOut := ctl(t, "bootstrap", "-from", ts.URL, "-wal-dir", dir)
	if code != 1 || !strings.Contains(errOut, "not a binary snapshot") {
		t.Fatalf("text body: exit %d, stderr: %s", code, errOut)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("refused bootstrap still created %s (stat: %v)", dir, err)
	}
}

func TestPromoteFlipsRole(t *testing.T) {
	purl, _, _ := bootPrimary(t)
	rurl, rs, _ := boot(t, server.Config{Role: server.RoleReplica, PrimaryURL: purl})

	code, out, errOut := ctl(t, "promote", "-node", rurl)
	if code != 0 {
		t.Fatalf("promote exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "now primary") {
		t.Fatalf("promote output: %s", out)
	}
	if rs.Role() != server.RolePrimary {
		t.Fatalf("role after promote = %s", rs.Role())
	}
	if code, out, _ := ctl(t, "promote", "-node", rurl); code != 0 || !strings.Contains(out, "already primary") {
		t.Fatalf("second promote: exit %d, out: %s", code, out)
	}
}
