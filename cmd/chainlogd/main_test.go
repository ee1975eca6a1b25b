package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"chainlog/internal/wal"
)

func TestRunRequiresProgram(t *testing.T) {
	if err := run(nil); err == nil || !strings.Contains(err.Error(), "-program is required") {
		t.Fatalf("want -program error, got %v", err)
	}
}

func TestRunMissingProgramFile(t *testing.T) {
	if err := run([]string{"-program", "/nonexistent/prog.dl"}); err == nil {
		t.Fatal("want error for missing program file")
	}
}

func TestRunBadProgram(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.dl")
	if err := os.WriteFile(path, []byte("this is not datalog :-"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-program", path}); err == nil || !strings.Contains(err.Error(), "loading") {
		t.Fatalf("want load error, got %v", err)
	}
}

// TestRunServeAndDrain drives the real boot/serve/drain cycle
// in-process: run() on a free port, a live query over HTTP, then
// SIGTERM to our own process (caught by run's NotifyContext) and a nil
// return — the daemon's clean-drain contract.
func TestRunServeAndDrain(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "prog.dl")
	if err := os.WriteFile(prog, []byte(`
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- e(X, Y), tc(Y, Z).
		e(a, b). e(b, c).
	`), 0o644); err != nil {
		t.Fatal(err)
	}

	facts := filepath.Join(dir, "facts.dl")
	if err := os.WriteFile(facts, []byte("e(c, d).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base, stop := startDaemon(t, "-program", prog, "-facts", facts)
	defer stop()

	resp, err := http.Post(base+"/v1/query", "application/json",
		strings.NewReader(`{"template": "tc(?, Y)", "args": ["a"]}`))
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 256)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body[:n])
	}
	// The -facts file contributed e(c, d), so tc(a, Y) = b, c, d.
	if want := `"rows":[["b"],["c"],["d"]]`; !strings.Contains(string(body[:n]), want) {
		t.Fatalf("query response %s missing %s", body[:n], want)
	}
}

// startDaemon runs the daemon in-process on a free port and waits for
// /healthz; stop sends SIGTERM to our own process (caught by run's
// NotifyContext) and requires the clean-drain nil return.
func startDaemon(t *testing.T, args ...string) (base string, stop func()) {
	t.Helper()
	// Reserve a free port, then hand it to the daemon.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	done := make(chan error, 1)
	go func() {
		done <- run(append(args, "-addr", addr, "-drain-timeout", "5s"))
	}()
	base = "http://" + addr
	healthy := false
	for i := 0; i < 100 && !healthy; i++ {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			healthy = resp.StatusCode == http.StatusOK
		}
		if !healthy {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if !healthy {
		t.Fatal("daemon never became healthy")
	}
	return base, func() {
		t.Helper()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v after SIGTERM, want nil (clean drain)", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not drain within 10s of SIGTERM")
		}
	}
}

// The snapshot format is not settable: the flag is gone, not ignored.
func TestRunRejectsSnapshotFormatFlag(t *testing.T) {
	err := run([]string{"-program", "x.dl", "-snapshot-format", "binary"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-snapshot-format: %v, want a flag error", err)
	}
}

// TestRunRefusesLegacyWALDir boots the daemon, flags as shipped, on a
// WAL directory an older daemon left behind — snap-<epoch>.dl plus a
// log tail. The segments the text snapshot covered are gone, so the
// boot must fail naming the file, not serve a store with a hole.
func TestRunRefusesLegacyWALDir(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "prog.dl")
	if err := os.WriteFile(prog, []byte("e(a, b).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(dir, "wal")
	wl, err := wal.Open(wal.Options{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Append(wal.Record{Epoch: 6, Ops: []wal.Op{{Pred: "e", Args: []string{"c", "d"}}}}); err != nil {
		t.Fatal(err)
	}
	wl.Close()
	legacy := filepath.Join(walDir, "snap-0000000000000005.dl")
	if err := os.WriteFile(legacy, []byte("e(a, b).\ne(b, c).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-program", prog, "-wal-dir", walDir, "-addr", "127.0.0.1:0"})
	if err == nil || !strings.Contains(err.Error(), legacy) || !strings.Contains(err.Error(), "predates binary snapshots") {
		t.Fatalf("boot on a legacy WAL directory: %v, want a refusal naming %s", err, legacy)
	}
}

func TestRunAddrInUse(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "prog.dl")
	if err := os.WriteFile(prog, []byte("e(a, b).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	err = run([]string{"-program", prog, "-addr", l.Addr().String()})
	if err == nil {
		t.Fatal("want bind error for occupied address")
	}
	if !strings.Contains(fmt.Sprint(err), "address already in use") {
		t.Logf("bind error (platform-specific): %v", err)
	}
}
