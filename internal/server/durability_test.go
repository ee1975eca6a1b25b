package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"chainlog"

	"chainlog/internal/wal"
)

// moveAway renames dir aside, so a WAL rotation into it fails with no
// fault injected, and returns the function that puts it back.
func moveAway(t *testing.T, dir string) (restore func()) {
	t.Helper()
	aside := dir + ".aside"
	if err := os.Rename(dir, aside); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.Rename(aside, dir); err != nil {
			t.Fatal(err)
		}
	}
}

// openRotatingWAL opens a log whose every append after a segment's first
// rotates to a new segment file in dir.
func openRotatingWAL(t *testing.T, dir string) *wal.Log {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// walEpochs returns the epochs l holds above from.
func walEpochs(t *testing.T, l *wal.Log, from uint64) []uint64 {
	t.Helper()
	var got []uint64
	if err := l.ReadFrom(from, func(rec wal.Record) error {
		got = append(got, rec.Epoch)
		return nil
	}); err != nil {
		t.Fatalf("ReadFrom(%d): %v", from, err)
	}
	return got
}

// A write whose WAL append fails lands nothing: the client gets a 5xx,
// the epoch stays, no query and no open watch sees the fact, the next
// write takes the same epoch, and the log has no hole.
func TestFailedAppendLandsNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l := openRotatingWAL(t, dir)
	_, primary, db := newPrimary(t, Config{WAL: l})
	base := db.FactEpoch()
	_, ch := openWatch(t, primary.URL, watchParams("ancestor(?, Y)", "bart"))
	if reset := nextEvent(t, ch); !reset.Reset {
		t.Fatalf("first watch line is not a reset: %+v", reset)
	}

	if status, mr, _ := assertFact(t, primary.URL, "parent", "orville", "zeke"); status != http.StatusOK || mr.Epoch != base+1 {
		t.Fatalf("first write: status %d, %+v", status, mr)
	}
	if ev := nextEvent(t, ch); !reflect.DeepEqual(ev.Added, [][]string{{"zeke"}}) {
		t.Fatalf("watch after the first write: %+v", ev)
	}

	restore := moveAway(t, dir)
	if status, _, _ := assertFact(t, primary.URL, "parent", "zeke", "yaya"); status < 500 {
		t.Fatalf("write with a failing WAL: status %d, want 5xx", status)
	}
	if got := db.FactEpoch(); got != base+1 {
		t.Fatalf("failed write moved the epoch to %d, want %d", got, base+1)
	}
	_, q := queryRows(t, primary.URL, QueryRequest{Query: "ancestor(bart, Y)"})
	for _, row := range q.Result.Rows {
		if row[0] == "yaya" {
			t.Fatalf("a query saw the failed write: %v", q.Result.Rows)
		}
	}
	restore()

	status, mr, _ := assertFact(t, primary.URL, "parent", "zeke", "xan")
	if status != http.StatusOK || mr.Epoch != base+2 {
		t.Fatalf("write after the failure: status %d, %+v, want epoch %d", status, mr, base+2)
	}
	// Had the failed write reached the view, its yaya would come first.
	if ev := nextEvent(t, ch); ev.Epoch != base+2 || !reflect.DeepEqual(ev.Added, [][]string{{"xan"}}) {
		t.Fatalf("watch after the failure: %+v, want xan alone at epoch %d", ev, base+2)
	}
	if got := walEpochs(t, l, base); !reflect.DeepEqual(got, []uint64{base + 1, base + 2}) {
		t.Fatalf("WAL epochs %v, want [%d %d]", got, base+1, base+2)
	}
}

// A replica whose own append fails lands nothing and retries the record
// into its log: no hole, and every later record follows it.
func TestReplicaRetriesFailedAppend(t *testing.T) {
	_, primary, pdb := newPrimary(t, Config{})
	base := pdb.FactEpoch()

	dir := filepath.Join(t.TempDir(), "wal")
	rl := openRotatingWAL(t, dir)
	rdb := chainlog.NewDB()
	if err := rdb.LoadProgram(familyProgram); err != nil {
		t.Fatal(err)
	}
	var tailErrs atomic.Int32
	rs, err := New(Config{DB: rdb, WAL: rl, Role: RoleReplica, PrimaryURL: primary.URL,
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "replication tail") {
				tailErrs.Add(1)
			}
			t.Logf(format, args...)
		}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rs.StartReplication(ctx)
	t.Cleanup(func() { cancel(); rs.stopReplication() })

	assertFact(t, primary.URL, "parent", "orville", "zeke")
	waitFor(t, "the first record", func() bool { return rdb.FactEpoch() == base+1 })

	restore := moveAway(t, dir)
	assertFact(t, primary.URL, "parent", "zeke", "yaya")
	waitFor(t, "the replica's failed append", func() bool { return tailErrs.Load() > 0 })
	if got := rdb.FactEpoch(); got != base+1 {
		t.Fatalf("replica at epoch %d after its append failed, want %d", got, base+1)
	}
	restore()

	assertFact(t, primary.URL, "parent", "zeke", "xan")
	waitFor(t, "the replica to catch up", func() bool { return rdb.FactEpoch() == base+3 })
	if got := walEpochs(t, rl, base); !reflect.DeepEqual(got, []uint64{base + 1, base + 2, base + 3}) {
		t.Fatalf("replica WAL epochs %v, want [%d %d %d]", got, base+1, base+2, base+3)
	}
}

// A log whose fsync fails is failed for good: the write gets a 5xx and
// changes nothing, /healthz answers 503 and /v1/status names the error.
// The active segment is a link to /dev/null, which Linux refuses to
// fsync.
func TestFailedWALFailsHealth(t *testing.T) {
	dir := t.TempDir()
	if err := os.Symlink(os.DevNull, filepath.Join(dir, "wal-0000000000000001.seg")); err != nil {
		t.Skip(err)
	}
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	_, primary, db := newPrimary(t, Config{WAL: l})
	base := db.FactEpoch()

	if status, _, _ := assertFact(t, primary.URL, "parent", "zeke", "yaya"); status < 500 {
		t.Skipf("append to %s: status %d; this system fsyncs it", os.DevNull, status)
	}
	if got := db.FactEpoch(); got != base || l.Err() == nil {
		t.Fatalf("after a failed fsync: epoch %d (want %d), wal.Err %v", got, base, l.Err())
	}

	resp, err := http.Get(primary.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), `"wal failed"`) {
		t.Fatalf("healthz %d %s, want 503 wal failed", resp.StatusCode, body)
	}

	resp, err = http.Get(primary.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st StatusResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.WAL == nil || st.WAL.Failed == "" {
		t.Fatalf("status does not report the failed log: %+v", st.WAL)
	}
}
