package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"chainlog"

	"chainlog/internal/wal"
)

// Replication model
//
// The engine's mutation API is already the protocol: a Delta is an
// op-log record, the fact epoch is its log sequence number, announced by
// DB.Updates, and SnapshotBinary is a snapshot. The serving layer wires it:
//
//   - every write lands through land, which is DB.Land: the DB nets the
//     record once, it is appended and synced, and then it is applied,
//     so no reader sees an undurable write; the DB lets one writer in at
//     a time, so log order and epoch order are one order;
//   - GET /v1/replicate?from=E streams committed records with epoch > E
//     as NDJSON and then long-polls on DB.Updates for more (serveFeed,
//     the loop /v1/watch runs too), so a caught-up replica costs one
//     idle connection, not a poll loop;
//   - replicas tail that feed and land each record at its epoch, into
//     their own WAL first, so a restart recovers locally and only tails
//     the difference: compiled plans survive the churn (fact-epoch
//     movement never recompiles), and duplicate delivery is a no-op;
//   - a replica that has fallen below the primary's truncation horizon
//     gets 410 Gone and re-bootstraps from GET /v1/snapshot.
//
// Consistency: replicas serve reads at their applied epoch, stamped on
// every response as X-Chainlog-Epoch. A client needing read-your-writes
// sends X-Chainlog-Min-Epoch with the epoch a mutation response gave
// it; the handler waits (within the request deadline) until the node
// reaches that epoch before evaluating.

// Role names for Config.Role.
const (
	RolePrimary = "primary"
	RoleReplica = "replica"
)

// ReplicateLine is one NDJSON line of the /v1/replicate feed: either a
// record line (Epoch + Ops) or a heartbeat line (Head only), which
// tells a caught-up replica where the primary is so it can report lag 0
// instead of unknown.
type ReplicateLine struct {
	Epoch uint64   `json:"epoch,omitempty"`
	Ops   []wal.Op `json:"ops,omitempty"`
	Head  uint64   `json:"head,omitempty"`
}

// DeltaOfOps is chainlog.DeltaOf, for the callers that replay a WAL.
func DeltaOfOps(ops []wal.Op) *chainlog.Delta { return chainlog.DeltaOf(ops) }

// errNotPrimary is returned by commit on a replica.
var errNotPrimary = errors.New("read-only replica: writes go to the primary")

// commit is the primary's write path: land the ops at the next epoch.
// Returns the fact epoch after the write.
func (s *Server) commit(ops []wal.Op) (chainlog.ApplyResult, uint64, error) {
	if s.replica.Load() {
		return chainlog.ApplyResult{}, 0, errNotPrimary
	}
	res, at, err := s.land(0, ops)
	if at == 0 {
		at = s.db.FactEpoch() // nothing landed
	}
	return res, at, err
}

// land is the one way a record reaches the store: DB.Land checks it,
// appends it to the WAL, then applies it as recovery does, letting no
// other writer in between. So no reader sees an undurable write, a feed
// the epoch wakes finds the record logged, and a record the DB refuses
// or the WAL fails to append changes nothing. epoch 0 is the primary's
// next epoch, taken only when the ops net to a change. Returns the epoch
// the record landed at, 0 when it landed nothing.
func (s *Server) land(epoch uint64, ops []wal.Op) (chainlog.ApplyResult, uint64, error) {
	var log func(uint64) error
	if s.wal != nil {
		log = func(epoch uint64) error {
			if err := s.wal.Append(wal.Record{Epoch: epoch, Ops: ops}); err != nil {
				s.cfg.Logf("chainlogd: WAL append at epoch %d failed: %v", epoch, err)
				return fmt.Errorf("wal append: %w", err)
			}
			return nil
		}
	}
	defer s.maybeSnapshot()
	return s.db.Land(chainlog.DeltaOf(ops), epoch, log)
}

// writeCommitError renders commit failures: 403 with the primary's
// address for redirect on a replica, 400 for ops the DB refuses, 500
// otherwise.
func (s *Server) writeCommitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errNotPrimary):
		if s.cfg.PrimaryURL != "" {
			w.Header().Set("X-Chainlog-Primary", s.cfg.PrimaryURL)
		}
		writeError(w, http.StatusForbidden, "%v", err)
	case errors.Is(err, chainlog.ErrArity):
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// awaitEpoch blocks until the node's fact epoch reaches min — the
// X-Chainlog-Min-Epoch read-your-writes wait. The channel is grabbed
// before the epoch check so a movement between check and wait cannot be
// missed.
func (s *Server) awaitEpoch(ctx context.Context, min uint64) error {
	for {
		ch := s.db.Updates()
		if s.db.FactEpoch() >= min {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return context.Cause(ctx)
		}
	}
}

// maybeSnapshot writes a WAL snapshot in the background once enough log
// bytes have accumulated since the last one, truncating fully covered
// segments. At most one snapshot runs at a time; the mutation path pays
// only the CAS.
func (s *Server) maybeSnapshot() {
	if s.wal == nil || s.cfg.SnapshotBytes <= 0 || s.wal.SizeSinceSnapshot() < s.cfg.SnapshotBytes {
		return
	}
	if !s.snapInFlight.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.snapInFlight.Store(false)
		epoch, err := s.writeWALSnapshot()
		if err != nil {
			s.cfg.Logf("chainlogd: WAL snapshot failed: %v", err)
			return
		}
		s.snapshots.Inc()
		s.cfg.Logf("chainlogd: WAL snapshot at epoch %d (%d segments live)", epoch, s.wal.Segments())
	}()
}

// handleReplicate serves the log-shipping feed through serveFeed: every
// committed record with epoch > from as one NDJSON line, then a
// heartbeat with the current head. A from below the truncation horizon
// is a 410 before any line.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if s.wal == nil {
		writeError(w, http.StatusNotImplemented, "replication requires a WAL (-wal-dir)")
		return
	}
	var from uint64
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "malformed from=%q: %v", q, err)
			return
		}
		from = v
	}
	s.serveFeed(w, r, s.db.Updates, func(emit func(any) error) error {
		// The log leads the DB while a write lands: head covers what was sent.
		var sent uint64
		err := s.wal.ReadFrom(from, func(rec wal.Record) error {
			from, sent = rec.Epoch, rec.Epoch
			return emit(ReplicateLine{Epoch: rec.Epoch, Ops: rec.Ops})
		})
		if err != nil {
			return err
		}
		return emit(ReplicateLine{Head: max(s.db.FactEpoch(), sent)})
	}, func(err error) (int, string) {
		if errors.Is(err, wal.ErrGone) {
			return http.StatusGone, fmt.Sprintf("epochs after %d were truncated by a snapshot; bootstrap from /v1/snapshot", from)
		}
		return http.StatusInternalServerError, err.Error()
	})
}

// writeWALSnapshot persists the store to the WAL as a binary snapshot,
// truncating covered segments.
func (s *Server) writeWALSnapshot() (uint64, error) {
	return s.wal.WriteSnapshot(func(w io.Writer) (uint64, error) {
		return s.db.SnapshotBinary(w, nil)
	})
}

// handleSnapshot streams the fact store as a binary columnar snapshot
// with the captured epoch in X-Chainlog-Epoch — the bootstrap source
// for new replicas and chainlogctl. ?format=binary names the only
// format and is accepted for clients that already send it.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if f := r.URL.Query().Get("format"); f != "" && f != "binary" {
		writeError(w, http.StatusBadRequest, "unknown snapshot format %q (snapshots are binary)", f)
		return
	}
	_, err := s.db.SnapshotBinary(w, func(epoch uint64) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Chainlog-Epoch", strconv.FormatUint(epoch, 10))
	})
	if err != nil {
		s.cfg.Logf("chainlogd: snapshot stream: %v", err)
	}
}

// WALStatus is the wal section of a status response; Failed is wal.Log.Err.
type WALStatus struct {
	LastEpoch          uint64 `json:"last_epoch"`
	OldestEpoch        uint64 `json:"oldest_epoch"`
	SnapshotEpoch      uint64 `json:"snapshot_epoch"`
	Segments           int    `json:"segments"`
	BytesSinceSnapshot int64  `json:"bytes_since_snapshot"`
	Failed             string `json:"failed,omitempty"`
}

// ReplStatus is the replication section of a replica's status response.
type ReplStatus struct {
	Connected bool   `json:"connected"`
	Head      uint64 `json:"head"`
	Lag       uint64 `json:"lag"`
}

// StatusResponse is the body of GET /v1/status — what chainlogctl
// renders per node.
type StatusResponse struct {
	Role        string      `json:"role"`
	RuleEpoch   uint64      `json:"rule_epoch"`
	FactEpoch   uint64      `json:"fact_epoch"`
	PrimaryURL  string      `json:"primary_url,omitempty"`
	Draining    bool        `json:"draining"`
	WAL         *WALStatus  `json:"wal,omitempty"`
	Replication *ReplStatus `json:"replication,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	resp := StatusResponse{
		Role:       s.Role(),
		RuleEpoch:  s.db.RuleEpoch(),
		FactEpoch:  s.db.FactEpoch(),
		PrimaryURL: s.cfg.PrimaryURL,
		Draining:   s.draining.Load(),
	}
	if s.wal != nil {
		_, snapEpoch, _ := s.wal.Snapshot()
		resp.WAL = &WALStatus{
			LastEpoch:          s.wal.LastEpoch(),
			OldestEpoch:        s.wal.OldestEpoch(),
			SnapshotEpoch:      snapEpoch,
			Segments:           s.wal.Segments(),
			BytesSinceSnapshot: s.wal.SizeSinceSnapshot(),
		}
		if err := s.wal.Err(); err != nil {
			resp.WAL.Failed = err.Error()
		}
	}
	if s.replica.Load() {
		head := s.replHead.Load()
		lag := uint64(0)
		if fe := resp.FactEpoch; head > fe {
			lag = head - fe
		}
		resp.Replication = &ReplStatus{Connected: s.replConnected.Value() == 1, Head: head, Lag: lag}
	}
	w.Header().Set("X-Chainlog-Epoch", strconv.FormatUint(resp.FactEpoch, 10))
	writeJSON(w, http.StatusOK, resp)
}

// PromoteResponse is the body of POST /v1/promote.
type PromoteResponse struct {
	Role      string `json:"role"`
	FactEpoch uint64 `json:"fact_epoch"`
	Promoted  bool   `json:"promoted"`
}

// handlePromote flips a replica into a primary: the tailer stops and
// the write path opens at the replica's current epoch. Manual failover
// — the operator is responsible for making sure the old primary stopped
// accepting writes first. Promoting a primary is an idempotent no-op.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	promoted := s.replica.CompareAndSwap(true, false)
	if promoted {
		s.stopReplication()
		s.replConnected.Set(0)
		s.replLag.Set(0)
		s.cfg.Logf("chainlogd: promoted to primary at epoch %d", s.db.FactEpoch())
	}
	writeJSON(w, http.StatusOK, PromoteResponse{Role: RolePrimary, FactEpoch: s.db.FactEpoch(), Promoted: promoted})
}

// Role reports the node's current role (promote can change it at
// runtime).
func (s *Server) Role() string {
	if s.replica.Load() {
		return RoleReplica
	}
	return RolePrimary
}

// StartReplication launches the tailer goroutine that follows the
// primary's feed until ctx is canceled or the node is promoted.
// ListenAndServe calls it for replica-role servers; tests drive it
// directly.
func (s *Server) StartReplication(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	s.replMu.Lock()
	if s.replCancel != nil {
		s.replCancel()
	}
	s.replCancel = cancel
	s.replMu.Unlock()
	s.replWG.Add(1)
	go func() {
		defer s.replWG.Done()
		s.replicate(ctx)
	}()
}

// stopReplication cancels the tailer and waits for it to exit, so a
// promote returns only after the last replicated record is applied.
func (s *Server) stopReplication() {
	s.replMu.Lock()
	cancel := s.replCancel
	s.replCancel = nil
	s.replMu.Unlock()
	if cancel != nil {
		cancel()
	}
	s.replWG.Wait()
}

// errSnapshotNeeded: the primary truncated the epochs we need; fall
// back to a snapshot bootstrap.
var errSnapshotNeeded = errors.New("replica behind the primary's truncation horizon")

// replicate is the tailer loop: tail the feed, apply records, bootstrap
// from a snapshot when told to, back off on errors.
func (s *Server) replicate(ctx context.Context) {
	const maxBackoff = 5 * time.Second
	backoff := 250 * time.Millisecond
	for ctx.Err() == nil && s.replica.Load() {
		err := s.tailOnce(ctx)
		s.replConnected.Set(0)
		switch {
		case ctx.Err() != nil:
			return
		case err == nil:
			backoff = 250 * time.Millisecond // clean window end: reconnect now
		case errors.Is(err, errSnapshotNeeded):
			if berr := s.bootstrap(ctx); berr != nil {
				s.cfg.Logf("chainlogd: snapshot bootstrap failed: %v", berr)
				backoff = sleepBackoff(ctx, backoff, maxBackoff)
			} else {
				backoff = 250 * time.Millisecond
			}
		default:
			s.cfg.Logf("chainlogd: replication tail: %v", err)
			backoff = sleepBackoff(ctx, backoff, maxBackoff)
		}
	}
}

func sleepBackoff(ctx context.Context, cur, max time.Duration) time.Duration {
	t := time.NewTimer(cur)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
	if cur *= 2; cur > max {
		cur = max
	}
	return cur
}

// tailOnce holds one feed connection: stream records, apply each, until
// the primary closes the window. A nil return is a clean window end.
func (s *Server) tailOnce(ctx context.Context) error {
	from := s.db.FactEpoch()
	u := s.cfg.PrimaryURL + "/v1/replicate?from=" + strconv.FormatUint(from, 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := s.replClient.Do(req)
	if err != nil {
		return err
	}
	// Closed, not drained: after a record fails, the rest of the window is
	// not worth waiting for.
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return errSnapshotNeeded
	default:
		return fmt.Errorf("primary feed: HTTP %d", resp.StatusCode)
	}
	s.replConnected.Set(1)
	dec := json.NewDecoder(resp.Body)
	for {
		var line ReplicateLine
		if err := dec.Decode(&line); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil // window closed cleanly
			}
			return err
		}
		if line.Epoch == 0 {
			if line.Head > 0 {
				s.replHead.Store(line.Head)
				s.updateLag()
			}
			continue
		}
		if err := s.applyReplicated(line); err != nil {
			return err
		}
	}
}

// applyReplicated lands one record at its epoch. The DB lets one writer
// in at a time, so promote cannot interleave a local write. A record at
// or below the node's epoch is already landed (a duplicate delivery);
// one the DB refuses or the WAL fails to append is an error, and the
// tailer retries it rather than skip past it.
func (s *Server) applyReplicated(line ReplicateLine) error {
	_, at, err := s.land(line.Epoch, line.Ops)
	if err != nil {
		return fmt.Errorf("replica record at epoch %d: %w", line.Epoch, err)
	}
	if at != 0 {
		s.replApplied.Inc()
	}
	if line.Epoch > s.replHead.Load() {
		s.replHead.Store(line.Epoch)
	}
	s.updateLag()
	return nil
}

func (s *Server) updateLag() {
	head, fe := s.replHead.Load(), s.db.FactEpoch()
	if head > fe {
		s.replLag.Set(int64(head - fe))
	} else {
		s.replLag.Set(0)
	}
}

// bootstrap pulls the primary's snapshot and restores it, landing the
// replica exactly at the snapshot's epoch; the tailer then follows the
// log from there. The restored state is immediately written to the
// local WAL as a snapshot so a restart recovers locally instead of
// re-bootstrapping.
func (s *Server) bootstrap(ctx context.Context) error {
	body, epoch, err := FetchSnapshot(ctx, s.replClient, s.cfg.PrimaryURL)
	if err != nil {
		return err
	}
	defer body.Close()
	if err := s.db.RestoreFactsAuto(body, epoch); err != nil {
		return err
	}
	if s.wal != nil {
		if _, err := s.writeWALSnapshot(); err != nil {
			return fmt.Errorf("persisting bootstrap snapshot: %w", err)
		}
	}
	s.updateLag()
	s.cfg.Logf("chainlogd: bootstrapped from %s at epoch %d", s.cfg.PrimaryURL, epoch)
	return nil
}

// FetchSnapshot GETs the binary snapshot of the node at base and returns
// its body, the caller's to close, and the fact epoch it stands at, read
// from X-Chainlog-Epoch. A status other than 200, a Content-Type other
// than a binary snapshot's or a malformed epoch is an error naming base.
func FetchSnapshot(ctx context.Context, client *http.Client, base string) (io.ReadCloser, uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(base, "/")+"/v1/snapshot", nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	var epoch uint64
	switch ct := resp.Header.Get("Content-Type"); {
	case resp.StatusCode != http.StatusOK:
		err = fmt.Errorf("HTTP %d", resp.StatusCode)
	case !strings.HasPrefix(ct, "application/octet-stream"):
		err = fmt.Errorf("Content-Type %q is not a binary snapshot", ct)
	default:
		if epoch, err = strconv.ParseUint(resp.Header.Get("X-Chainlog-Epoch"), 10, 64); err != nil {
			err = fmt.Errorf("malformed X-Chainlog-Epoch: %v", err)
		}
	}
	if err != nil {
		resp.Body.Close()
		return nil, 0, fmt.Errorf("snapshot from %s: %w", base, err)
	}
	return resp.Body, epoch, nil
}

// primaryURLValid pre-validates Config.PrimaryURL at New time.
func primaryURLValid(raw string) error {
	u, err := url.Parse(raw)
	if err != nil {
		return err
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("scheme %q (want http or https)", u.Scheme)
	}
	return nil
}
