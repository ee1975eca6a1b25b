package server

import (
	"encoding/json"
	"net/http"
	"time"
)

// serveFeed is the one long-poll loop, behind /v1/replicate and
// /v1/watch. Each pass grabs the source's update channel, then drain
// writes through emit every line after the client's cursor and a
// heartbeat carrying the new cursor; the pass flushes and waits for the
// next update, the end of the ReplicateWindow, the client leaving or the
// server draining. The 200 and the NDJSON content type go out with the
// first line, so a drain that fails before writing one still answers
// with fail's status and message. After that an error ends the stream,
// and is logged when fail rates it a server error.
func (s *Server) serveFeed(w http.ResponseWriter, r *http.Request, updates func() <-chan struct{},
	drain func(emit func(line any) error) error, fail func(error) (int, string)) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	enc := json.NewEncoder(w)
	started := false
	emit := func(line any) error {
		if !started {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			started = true
		}
		return enc.Encode(line)
	}
	window := time.NewTimer(s.cfg.ReplicateWindow)
	defer window.Stop()
	for {
		// Grab the update channel before draining: an update landing
		// between the drain and the wait closes this channel, so it is
		// seen on the next pass instead of missed.
		ch := updates()
		if err := drain(emit); err != nil {
			switch status, msg := fail(err); {
			case !started:
				writeError(w, status, "%s", msg)
			case status >= http.StatusInternalServerError:
				s.cfg.Logf("chainlogd: %s feed: %s", r.URL.Path, msg)
			}
			return
		}
		fl.Flush()
		select {
		case <-ch:
		case <-window.C:
			return // long-poll window over; the client reconnects with its cursor
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			return // do not hold Shutdown open for a long-poll window
		}
	}
}
