// Request cancellation: the *Ctx entry points thread a context through
// the traversal so a serving layer can enforce per-request deadlines.
// The engine polls the context at the main-loop level boundary and —
// because regular equations evaluate in a single iteration, where a
// level-only check would never fire mid-query — every
// cancelCheckInterval units of traversal work (node visits, closure
// steps, batch-graph pops). Parallel workers poll once per claimed
// frontier chunk. A canceled run returns an error wrapping the
// context's cause, so callers can match context.DeadlineExceeded with
// errors.Is; the pooled scratch is released normally and the engine
// stays fully reusable.
//
// The poll itself is ctxpoll.Err, which compares the deadline against
// the wall clock as well as the Done channel.
package chaineval

import (
	"context"
	"fmt"

	"chainlog/internal/ctxpoll"
)

// cancelCheckMask gates the hot loops' polls: each loop keeps a local
// iteration counter and calls check() only when counter&cancelCheckMask
// == 0 — one register increment and a predictable branch per iteration,
// nothing touched in memory, so the context-free hot path stays at its
// pre-cancellation speed. One poll per 4096 work units bounds the
// cancellation latency to microseconds of extra work.
const cancelCheckMask = 4096 - 1

// canceler is the per-run cancellation poller. The zero value (nil
// context) never fires. It holds no state of its own, so parallel
// traversal workers poll one concurrently.
type canceler struct {
	ctx context.Context
}

// stopped polls the context.
func (c *canceler) stopped() bool { return ctxpoll.Err(c.ctx) != nil }

// check polls the context, converting a fired deadline or cancellation
// into the run's error.
func (c *canceler) check() error {
	if cause := ctxpoll.Err(c.ctx); cause != nil {
		return fmt.Errorf("chaineval: evaluation canceled: %w", cause)
	}
	return nil
}
