package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	"chainlog"

	"chainlog/internal/wal"
)

// newPrimary boots a WAL-backed primary over familyProgram.
func newPrimary(t *testing.T, cfg Config) (*Server, *httptest.Server, *chainlog.DB) {
	t.Helper()
	if cfg.WAL == nil {
		l, err := wal.Open(wal.Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		cfg.WAL = l
	}
	return newTestServer(t, familyProgram, cfg)
}

// newReplica boots a replica of primaryURL over the same program (a
// replica boots from the same program files as its primary) and starts
// its tailer.
func newReplica(t *testing.T, primaryURL string, cfg Config) (*Server, *httptest.Server, *chainlog.DB) {
	t.Helper()
	cfg.Role = RoleReplica
	cfg.PrimaryURL = primaryURL
	s, ts, db := newTestServer(t, familyProgram, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	s.StartReplication(ctx)
	t.Cleanup(func() { cancel(); s.stopReplication() })
	return s, ts, db
}

func assertFact(t *testing.T, url, pred string, args ...string) (int, *MutationResponse, http.Header) {
	t.Helper()
	data, err := json.Marshal(map[string]any{
		"facts": []map[string]any{{"pred": pred, "args": args}},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/assert", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr MutationResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, &mr, resp.Header
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestReplicaRejectsWritesWithPrimaryRedirect(t *testing.T) {
	_, primary, _ := newPrimary(t, Config{})
	_, replica, _ := newReplica(t, primary.URL, Config{})

	status, _, hdr := assertFact(t, replica.URL, "parent", "maggie", "homer")
	if status != http.StatusForbidden {
		t.Fatalf("replica assert: status %d, want 403", status)
	}
	if got := hdr.Get("X-Chainlog-Primary"); got != primary.URL {
		t.Fatalf("X-Chainlog-Primary = %q, want %q", got, primary.URL)
	}
	// The primary named in the header accepts the same write.
	if status, mr, _ := assertFact(t, primary.URL, "parent", "maggie", "homer"); status != http.StatusOK || mr.Asserted != 1 {
		t.Fatalf("primary assert after redirect: status %d, %+v", status, mr)
	}
}

func TestMutationResponseCarriesEpoch(t *testing.T) {
	s, primary, _ := newPrimary(t, Config{})
	base := s.db.FactEpoch()

	status, mr, hdr := assertFact(t, primary.URL, "parent", "maggie", "homer")
	if status != http.StatusOK {
		t.Fatalf("assert: status %d", status)
	}
	if mr.Epoch != base+1 {
		t.Fatalf("mutation epoch = %d, want %d", mr.Epoch, base+1)
	}
	if got := hdr.Get("X-Chainlog-Epoch"); got != strconv.FormatUint(base+1, 10) {
		t.Fatalf("X-Chainlog-Epoch = %q, want %d", got, base+1)
	}
	// A net-no-change mutation (re-asserting a present fact) reports the
	// unmoved epoch.
	if _, mr, _ := assertFact(t, primary.URL, "parent", "maggie", "homer"); mr.Epoch != base+1 || mr.Asserted != 0 {
		t.Fatalf("no-op mutation: %+v", mr)
	}
}

func TestQueryStampsEpochHeader(t *testing.T) {
	s, primary, _ := newPrimary(t, Config{})
	assertFact(t, primary.URL, "parent", "maggie", "homer")

	resp, err := http.Post(primary.URL+"/v1/query", "application/json",
		bytes.NewReader([]byte(`{"query": "ancestor(bart, Y)"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	want := strconv.FormatUint(s.db.FactEpoch(), 10)
	if got := resp.Header.Get("X-Chainlog-Epoch"); got != want {
		t.Fatalf("query X-Chainlog-Epoch = %q, want %s", got, want)
	}
}

// minEpochQuery posts a query carrying X-Chainlog-Min-Epoch.
func minEpochQuery(t *testing.T, url string, min uint64, timeoutMS int) (int, http.Header) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"query": "ancestor(bart, Y)", "timeout_ms": timeoutMS})
	req, err := http.NewRequest(http.MethodPost, url+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Chainlog-Min-Epoch", strconv.FormatUint(min, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header
}

func TestMinEpochWaitAndTimeout(t *testing.T) {
	s, primary, _ := newPrimary(t, Config{})
	cur := s.db.FactEpoch()

	// Already satisfied: no wait.
	if status, _ := minEpochQuery(t, primary.URL, cur, 0); status != http.StatusOK {
		t.Fatalf("satisfied min-epoch query: status %d", status)
	}
	// Unreachable epoch with a short deadline: 504, not a hang.
	if status, _ := minEpochQuery(t, primary.URL, cur+100, 50); status != http.StatusGatewayTimeout {
		t.Fatalf("unreachable min-epoch query: status %d, want 504", status)
	}
	// Reached mid-wait: the query blocks until the mutation lands, then
	// answers at (or past) the requested epoch.
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(30 * time.Millisecond)
		assertFact(t, primary.URL, "parent", "maggie", "homer")
	}()
	status, hdr := minEpochQuery(t, primary.URL, cur+1, 3000)
	<-done
	if status != http.StatusOK {
		t.Fatalf("mid-wait min-epoch query: status %d", status)
	}
	if got, _ := strconv.ParseUint(hdr.Get("X-Chainlog-Epoch"), 10, 64); got < cur+1 {
		t.Fatalf("min-epoch query answered at epoch %d, want >= %d", got, cur+1)
	}
	// Malformed header is a client error.
	body, _ := json.Marshal(map[string]any{"query": "ancestor(bart, Y)"})
	req, _ := http.NewRequest(http.MethodPost, primary.URL+"/v1/query", bytes.NewReader(body))
	req.Header.Set("X-Chainlog-Min-Epoch", "soon")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed min-epoch: status %d, want 400", resp.StatusCode)
	}
}

func TestReplicaConvergesAndServesReads(t *testing.T) {
	ps, primary, pdb := newPrimary(t, Config{})
	walDir := t.TempDir()
	rl, err := wal.Open(wal.Options{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	rs, replica, rdb := newReplica(t, primary.URL, Config{WAL: rl})

	for i := 0; i < 10; i++ {
		if status, _, _ := assertFact(t, primary.URL, "parent", fmt.Sprintf("kid%d", i), "bart"); status != http.StatusOK {
			t.Fatalf("primary assert %d failed", i)
		}
	}
	want := pdb.FactEpoch()
	waitFor(t, "replica catch-up", func() bool { return rdb.FactEpoch() == want })

	// Byte-identical answers for the same prepared query on both nodes.
	_, pq := queryRows(t, primary.URL, QueryRequest{Query: "ancestor(kid3, Y)"})
	_, rq := queryRows(t, replica.URL, QueryRequest{Query: "ancestor(kid3, Y)"})
	pj, _ := json.Marshal(pq.Result.Rows)
	rj, _ := json.Marshal(rq.Result.Rows)
	if !bytes.Equal(pj, rj) || len(pq.Result.Rows) == 0 {
		t.Fatalf("replica rows %s != primary rows %s", rj, pj)
	}

	// The replica journaled what it applied: a fresh log opened on its
	// WAL dir replays to the same epoch.
	if rl.LastEpoch() != want {
		t.Fatalf("replica WAL at epoch %d, want %d", rl.LastEpoch(), want)
	}

	// Read-your-writes through the pair: write at the primary, read at
	// the replica with the returned epoch as the floor.
	_, mr, _ := assertFact(t, primary.URL, "parent", "newest", "bart")
	if status, hdr := minEpochQuery(t, replica.URL, mr.Epoch, 3000); status != http.StatusOK {
		t.Fatalf("replica min-epoch read: status %d", status)
	} else if got, _ := strconv.ParseUint(hdr.Get("X-Chainlog-Epoch"), 10, 64); got < mr.Epoch {
		t.Fatalf("replica answered at epoch %d, want >= %d", got, mr.Epoch)
	}

	_ = ps
	_ = rs
}

func TestReplicaBootstrapsPastTruncatedLog(t *testing.T) {
	// Tiny segments + an explicit snapshot truncate the primary's log so
	// epoch 0 is gone; a fresh replica must fall back to the snapshot
	// endpoint and still converge.
	pl, err := wal.Open(wal.Options{Dir: t.TempDir(), SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	ps, primary, pdb := newPrimary(t, Config{WAL: pl})
	for i := 0; i < 10; i++ {
		assertFact(t, primary.URL, "parent", fmt.Sprintf("kid%d", i), "bart")
	}
	if _, err := pl.WriteSnapshot(func(w io.Writer) (uint64, error) {
		return pdb.SnapshotBinary(w, nil)
	}); err != nil {
		t.Fatal(err)
	}
	if err := pl.ReadFrom(0, func(wal.Record) error { return nil }); err != wal.ErrGone {
		t.Fatalf("primary log still serves epoch 0 (err=%v); test needs truncation", err)
	}

	_, replica, rdb := newReplica(t, primary.URL, Config{})
	want := pdb.FactEpoch()
	waitFor(t, "bootstrap + catch-up", func() bool { return rdb.FactEpoch() == want })

	// Bootstrapped state answers like the primary, and keeps converging
	// through the feed afterwards.
	_, pq := queryRows(t, primary.URL, QueryRequest{Query: "ancestor(kid7, Y)"})
	_, rq := queryRows(t, replica.URL, QueryRequest{Query: "ancestor(kid7, Y)"})
	pj, _ := json.Marshal(pq.Result.Rows)
	rj, _ := json.Marshal(rq.Result.Rows)
	if !bytes.Equal(pj, rj) || len(pq.Result.Rows) == 0 {
		t.Fatalf("bootstrapped replica rows %s != primary rows %s", rj, pj)
	}
	assertFact(t, primary.URL, "parent", "late", "bart")
	waitFor(t, "post-bootstrap tail", func() bool { return rdb.FactEpoch() == pdb.FactEpoch() })
	_ = ps
}

// A bootstrap swaps the replica's store under its live views: a
// /v1/watch subscriber that was connected before the 410 must be told,
// in-band, with a reset line carrying the primary's rows.
func TestReplicaBootstrapResetsOpenWatch(t *testing.T) {
	pl, err := wal.Open(wal.Options{Dir: t.TempDir(), SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	ps, primary, _ := newPrimary(t, Config{WAL: pl})
	rs, replica, _ := newTestServer(t, familyProgram, Config{Role: RoleReplica, PrimaryURL: primary.URL})

	_, ch := openWatch(t, replica.URL, watchParams("ancestor(?, Y)", "kid7"))
	first := nextEvent(t, ch)
	if !first.Reset || len(first.Rows) != 0 {
		t.Fatalf("subscription opened with %+v, want an empty reset", first)
	}

	// The primary moves on and truncates its log below the replica.
	for i := 0; i < 10; i++ {
		assertFact(t, primary.URL, "parent", fmt.Sprintf("kid%d", i), "bart")
	}
	if _, err := ps.writeWALSnapshot(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rs.StartReplication(ctx)
	t.Cleanup(func() { cancel(); rs.stopReplication() })

	ln := nextEvent(t, ch)
	_, want := queryRows(t, primary.URL, QueryRequest{Query: "ancestor(kid7, Y)"})
	if !ln.Reset || ln.Gen == first.Gen || len(ln.Rows) == 0 || !reflect.DeepEqual(ln.Rows, want.Result.Rows) {
		t.Fatalf("after the bootstrap the subscriber got %+v, want a reset with the primary's rows %v", ln, want.Result.Rows)
	}
}

func TestPromoteOpensWrites(t *testing.T) {
	_, primary, pdb := newPrimary(t, Config{})
	rs, replica, rdb := newReplica(t, primary.URL, Config{})
	assertFact(t, primary.URL, "parent", "maggie", "homer")
	waitFor(t, "replica catch-up", func() bool { return rdb.FactEpoch() == pdb.FactEpoch() })

	resp, err := http.Post(replica.URL+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var pr PromoteResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !pr.Promoted || pr.Role != RolePrimary {
		t.Fatalf("promote response: %+v", pr)
	}
	if rs.Role() != RolePrimary {
		t.Fatalf("role after promote = %s", rs.Role())
	}
	// Writes now land locally.
	if status, mr, _ := assertFact(t, replica.URL, "parent", "rod", "ned"); status != http.StatusOK || mr.Asserted != 1 {
		t.Fatalf("write after promote: status %d, %+v", status, mr)
	}
	// Promote is idempotent.
	resp2, err := http.Post(replica.URL+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var pr2 PromoteResponse
	if err := json.NewDecoder(resp2.Body).Decode(&pr2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if pr2.Promoted {
		t.Fatal("second promote reported a transition")
	}
}

func TestStatusEndpoint(t *testing.T) {
	_, primary, pdb := newPrimary(t, Config{})
	assertFact(t, primary.URL, "parent", "maggie", "homer")

	resp, err := http.Get(primary.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Role != RolePrimary || st.FactEpoch != pdb.FactEpoch() || st.WAL == nil {
		t.Fatalf("primary status: %+v", st)
	}
	if st.WAL.LastEpoch != pdb.FactEpoch() {
		t.Fatalf("status WAL last epoch = %d, want %d", st.WAL.LastEpoch, pdb.FactEpoch())
	}

	_, replica, rdb := newReplica(t, primary.URL, Config{})
	waitFor(t, "replica catch-up", func() bool { return rdb.FactEpoch() == pdb.FactEpoch() })
	resp, err = http.Get(replica.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var rst StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&rst); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rst.Role != RoleReplica || rst.PrimaryURL != primary.URL || rst.Replication == nil {
		t.Fatalf("replica status: %+v", rst)
	}
	waitFor(t, "replica lag 0", func() bool {
		resp, err := http.Get(replica.URL + "/v1/status")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var s StatusResponse
		if json.NewDecoder(resp.Body).Decode(&s) != nil || s.Replication == nil {
			return false
		}
		return s.Replication.Lag == 0 && s.Replication.Head == pdb.FactEpoch()
	})
}

func TestReplicateFeedStreamsAndLongPolls(t *testing.T) {
	_, primary, pdb := newPrimary(t, Config{ReplicateWindow: 2 * time.Second})
	// Tail from the boot epoch: epochs at or below it come from the
	// program files, not the WAL (a real replica boots the same files).
	base := pdb.FactEpoch()
	assertFact(t, primary.URL, "parent", "maggie", "homer")
	assertFact(t, primary.URL, "parent", "rod", "ned")

	resp, err := http.Get(fmt.Sprintf("%s/v1/replicate?from=%d", primary.URL, base))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feed status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	var epochs []uint64
	var sawHead bool
	for len(epochs) < 2 || !sawHead {
		var line ReplicateLine
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("feed decode after %v: %v", epochs, err)
		}
		if line.Epoch != 0 {
			epochs = append(epochs, line.Epoch)
		} else if line.Head > 0 {
			sawHead = true
		}
	}
	if epochs[0] != base+1 || epochs[1] != base+2 {
		t.Fatalf("feed epochs = %v, want [%d %d]", epochs, base+1, base+2)
	}
	// The connection is now long-polling: a new commit arrives as a
	// fresh line without reconnecting.
	assertFact(t, primary.URL, "parent", "todd", "ned")
	want := pdb.FactEpoch()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		var line ReplicateLine
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("long-poll decode: %v", err)
		}
		if line.Epoch == want {
			return
		}
	}
	t.Fatal("long-poll never delivered the new record")
}

func TestReplicateFeedGoneAndBadRequest(t *testing.T) {
	s, primary, _ := newTestServer(t, familyProgram, Config{})
	if s.wal != nil {
		t.Fatal("test wants a WAL-less server")
	}
	resp, err := http.Get(primary.URL + "/v1/replicate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("WAL-less feed status = %d, want 501", resp.StatusCode)
	}

	_, wp, _ := newPrimary(t, Config{})
	resp, err = http.Get(wp.URL + "/v1/replicate?from=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed from status = %d, want 400", resp.StatusCode)
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	_, primary, pdb := newPrimary(t, Config{})
	assertFact(t, primary.URL, "parent", "maggie", "homer")
	// Binary is the only format: the parameter may name it or stay away.
	for _, query := range []string{"", "?format=binary"} {
		resp, err := http.Get(primary.URL + "/v1/snapshot" + query)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("snapshot%s: status %d, %v", query, resp.StatusCode, err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" || !bytes.HasPrefix(body, []byte(chainlog.SnapshotMagic)) {
			t.Fatalf("snapshot%s: Content-Type %q, body starts %q", query, ct, body[:min(8, len(body))])
		}
		epoch, err := strconv.ParseUint(resp.Header.Get("X-Chainlog-Epoch"), 10, 64)
		if err != nil || epoch != pdb.FactEpoch() {
			t.Fatalf("snapshot epoch header = %q (%v), want %d", resp.Header.Get("X-Chainlog-Epoch"), err, pdb.FactEpoch())
		}
		// The body restores into a fresh DB at exactly that epoch.
		db2 := chainlog.NewDB()
		if err := db2.LoadProgram(familyProgram); err != nil {
			t.Fatal(err)
		}
		if err := db2.RestoreFactsAuto(bytes.NewReader(body), epoch); err != nil {
			t.Fatal(err)
		}
		if db2.FactEpoch() != epoch {
			t.Fatalf("restored epoch = %d, want %d", db2.FactEpoch(), epoch)
		}
		ans, err := db2.Query("ancestor(maggie, Y)")
		if err != nil || len(ans.Rows) == 0 {
			t.Fatalf("restored DB query: %+v, err %v", ans, err)
		}
	}
	for _, format := range []string{"text", "x"} {
		resp, err := http.Get(primary.URL + "/v1/snapshot?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("snapshot?format=%s: status %d, want 400", format, resp.StatusCode)
		}
	}
}

// postDelta posts an ordered op batch to /v1/delta.
func postDelta(t *testing.T, url string, ops []DeltaOp) (int, *MutationResponse) {
	t.Helper()
	status, body := postJSON(t, url+"/v1/delta", DeltaRequest{Ops: ops})
	var mr MutationResponse
	if status == http.StatusOK {
		if err := json.Unmarshal(body, &mr); err != nil {
			t.Fatalf("bad delta response %s: %v", body, err)
		}
	}
	return status, &mr
}

// Conflicting operations on the same fact inside one delta must net out
// identically on the primary (ApplyResult, at most one epoch move, WAL
// append skipped when nothing changed) and on a replica replaying the
// shipped record.
func TestConflictingDeltaNetsAcrossReplication(t *testing.T) {
	ps, primary, pdb := newPrimary(t, Config{})
	_, replica, rdb := newReplica(t, primary.URL, Config{})
	base := pdb.FactEpoch()

	// Flip-flop on an absent fact: assert, retract, assert → net one
	// assert and exactly one epoch move.
	status, mr := postDelta(t, primary.URL, []DeltaOp{
		{Op: "assert", Pred: "parent", Args: []string{"zeke", "yaya"}},
		{Op: "retract", Pred: "parent", Args: []string{"zeke", "yaya"}},
		{Op: "assert", Pred: "parent", Args: []string{"zeke", "yaya"}},
	})
	if status != http.StatusOK || mr.Asserted != 1 || mr.Retracted != 0 {
		t.Fatalf("flip-flop delta: status %d, %+v, want net 1 assert", status, mr)
	}
	if mr.Epoch != base+1 {
		t.Fatalf("flip-flop delta moved epoch to %d, want %d", mr.Epoch, base+1)
	}

	// Assert-then-retract of an absent fact nets to nothing: no epoch
	// move and no WAL record.
	walHead := ps.wal.LastEpoch()
	status, mr = postDelta(t, primary.URL, []DeltaOp{
		{Op: "assert", Pred: "parent", Args: []string{"gone", "gone"}},
		{Op: "retract", Pred: "parent", Args: []string{"gone", "gone"}},
	})
	if status != http.StatusOK || mr.Asserted != 0 || mr.Retracted != 0 || mr.Epoch != base+1 {
		t.Fatalf("net-zero delta: status %d, %+v, want no change at epoch %d", status, mr, base+1)
	}
	if got := ps.wal.LastEpoch(); got != walHead {
		t.Fatalf("net-zero delta appended to the WAL: head %d -> %d", walHead, got)
	}

	// Retract-then-assert of a present fact is also a net no-op, mixed
	// with a real insertion in the same batch → net 1 assert.
	status, mr = postDelta(t, primary.URL, []DeltaOp{
		{Op: "retract", Pred: "parent", Args: []string{"bart", "homer"}},
		{Op: "assert", Pred: "parent", Args: []string{"bart", "homer"}},
		{Op: "assert", Pred: "parent", Args: []string{"yaya", "xan"}},
	})
	if status != http.StatusOK || mr.Asserted != 1 || mr.Retracted != 0 {
		t.Fatalf("mixed delta: status %d, %+v, want net 1 assert", status, mr)
	}
	if mr.Epoch != base+2 {
		t.Fatalf("mixed delta at epoch %d, want %d", mr.Epoch, base+2)
	}

	// The replica replays the shipped gross ops and must land on the
	// same epoch with the same answers.
	waitFor(t, "replica to converge", func() bool { return rdb.FactEpoch() == mr.Epoch })
	for _, q := range []string{"ancestor(bart, Y)", "ancestor(zeke, Y)", "parent(yaya, Y)"} {
		_, pq := queryRows(t, primary.URL, QueryRequest{Query: q})
		_, rq := queryRows(t, replica.URL, QueryRequest{Query: q})
		if !reflect.DeepEqual(pq.Result.Rows, rq.Result.Rows) {
			t.Fatalf("%s: primary %v, replica %v", q, pq.Result.Rows, rq.Result.Rows)
		}
	}
}
