package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"chainlog"
)

// WatchLine is one NDJSON line of the GET /v1/watch feed, which runs
// the replication feed's loop (serveFeed). Three shapes share the
// struct:
//
//   - reset:     {"reset":true,"epoch":E,"gen":G,"vars":[...],"rows":[...]}
//     the full answer set at (E, G); sent on first connect, and whenever
//     the cursor cannot resume (stale generation after a rule load, or a
//     cursor older than the retained change ring).
//   - delta:     {"epoch":E,"added":[...],"removed":[...]}
//     the answer-set change committed at epoch E; at least one of
//     added/removed is non-empty.
//   - heartbeat: {"gen":G,"head":E}
//     the client is caught up through epoch E of generation G; (E, G) is
//     the resume cursor to send back as ?from=E&gen=G.
type WatchLine struct {
	Reset   bool       `json:"reset,omitempty"`
	Epoch   uint64     `json:"epoch,omitempty"`
	Gen     uint64     `json:"gen,omitempty"`
	Vars    []string   `json:"vars,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	Added   [][]string `json:"added,omitempty"`
	Removed [][]string `json:"removed,omitempty"`
	Head    uint64     `json:"head,omitempty"`
}

// watchKey identifies one shared materialized view: the prepared
// template plus its binding vector, each part quoted so that no two
// (template, args) pairs share a key (any separator byte can also occur
// inside an argument).
type watchKey string

// watchEntry is a refcounted live view: every subscriber of the same
// (template, args) shares one Materialized, so N watchers cost one
// maintenance pass per mutation, not N. After the last unsubscribe the
// view lingers for Config.WatchLinger, keeping its change ring warm so
// a reconnect within the window resumes instead of resetting.
type watchEntry struct {
	view   *chainlog.Materialized
	refs   int
	linger *time.Timer
}

// acquireView returns the shared live view for (template, args),
// materializing it on first subscription. The returned release func
// drops the reference; the last release closes the view.
func (s *Server) acquireView(r *http.Request, template string, args []string) (*chainlog.Materialized, func(), error) {
	key := watchKey(fmt.Sprintf("%q", append([]string{template}, args...)))
	s.watchMu.Lock()
	if e, ok := s.watches[key]; ok {
		if e.linger != nil {
			e.linger.Stop()
			e.linger = nil
		}
		e.refs++
		s.watchMu.Unlock()
		s.watchSubs.Inc()
		return e.view, s.releaseView(key), nil
	}
	s.watchMu.Unlock()

	// Compile and materialize outside watchMu; the plan cache
	// single-flights the compilation.
	ctx, cancel := s.requestContext(r, 0)
	defer cancel()
	p, err := s.db.PrepareCached(ctx, template, s.options(chainlog.Auto, 0))
	if err != nil {
		return nil, nil, err
	}
	m, err := p.Materialize(args...)
	if err != nil {
		return nil, nil, err
	}
	s.watchMu.Lock()
	if e, ok := s.watches[key]; ok {
		// Lost a materialize race; share the winner's view.
		e.refs++
		s.watchMu.Unlock()
		m.Close()
		s.watchSubs.Inc()
		return e.view, s.releaseView(key), nil
	}
	s.watches[key] = &watchEntry{view: m, refs: 1}
	s.watchMu.Unlock()
	s.watchSubs.Inc()
	return m, s.releaseView(key), nil
}

func (s *Server) releaseView(key watchKey) func() {
	return func() {
		s.watchMu.Lock()
		if e := s.watches[key]; e != nil {
			e.refs--
			if e.refs == 0 {
				if s.cfg.WatchLinger < 0 {
					delete(s.watches, key)
					e.view.Close()
				} else {
					e.linger = time.AfterFunc(s.cfg.WatchLinger, func() {
						s.watchMu.Lock()
						defer s.watchMu.Unlock()
						if e := s.watches[key]; e != nil && e.refs == 0 {
							delete(s.watches, key)
							e.view.Close()
						}
					})
				}
			}
		}
		s.watchMu.Unlock()
		s.watchSubs.Dec()
	}
}

// handleWatch serves a live view of one prepared query as an NDJSON
// long-poll through serveFeed: a reset line (or, when ?from=E&gen=G
// resumes within the retained window, just the missed deltas), then
// answer deltas as they commit, heartbeats carrying the resume cursor.
// The feed works on any role — replicas maintain their views from the
// applied WAL tail, so a watch on a replica streams the same
// epoch-stamped deltas the primary commits.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	template := q.Get("template")
	if template == "" {
		writeError(w, http.StatusBadRequest, "\"template\" is required")
		return
	}
	args := q["arg"]
	haveFrom, haveGen := q.Get("from") != "", q.Get("gen") != ""
	if haveFrom != haveGen {
		writeError(w, http.StatusBadRequest, "\"from\" and \"gen\" must be supplied together")
		return
	}
	var cur, gen uint64
	if haveFrom {
		var err error
		if cur, err = strconv.ParseUint(q.Get("from"), 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, "malformed from=%q: %v", q.Get("from"), err)
			return
		}
		if gen, err = strconv.ParseUint(q.Get("gen"), 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, "malformed gen=%q: %v", q.Get("gen"), err)
			return
		}
	}
	m, release, err := s.acquireView(r, template, args)
	if err != nil {
		writeError(w, httpStatusFor(err), "%v", err)
		return
	}
	defer release()
	// The cursor resumes only within its generation and the retained
	// ring; anything else, including no cursor (generation 0, which no
	// view has), gets a reset with the full answer set.
	s.serveFeed(w, r, m.Updates, func(emit func(any) error) error {
		if m.Closed() {
			return errViewClosed
		}
		sets, ok := m.Changes(cur, gen)
		if !ok {
			rows, epoch, g := m.State()
			cur, gen = epoch, g
			if err := emit(WatchLine{Reset: true, Epoch: epoch, Gen: g, Vars: m.Vars(), Rows: rows}); err != nil {
				return err
			}
		}
		for _, cs := range sets {
			cur = cs.Epoch
			if err := emit(WatchLine{Epoch: cs.Epoch, Added: cs.Added, Removed: cs.Removed}); err != nil {
				return err
			}
		}
		return emit(WatchLine{Head: cur, Gen: gen})
	}, func(err error) (int, string) { return httpStatusFor(err), err.Error() })
}

// errViewClosed ends a watch whose view was closed under it.
var errViewClosed = errors.New("watch: view closed")
