// Request cancellation: the *Ctx entry points thread a context through
// the traversal so a serving layer can enforce per-request deadlines.
// A run polls the context when it starts, and afterwards by work: once
// cancelCheckInterval units have passed since the last poll. A unit is a
// node made (the cyclic guard's traversals count their own), a
// continuation point resumed at a level boundary, or a batch-graph node
// numbered or walked. So a run
// of many short levels — sg on the Fig. 7(b) ladder runs hundreds of
// levels of a few dozen nodes — polls about as often as one long level
// does, not once a level, and a regular equation, which converges in one
// iteration, still polls mid-level. A sharded level's workers poll once per claimed frontier
// chunk. A canceled run returns an error wrapping the context's cause, so
// callers can match context.DeadlineExceeded with errors.Is; the pooled
// scratch is released normally and the engine stays fully reusable.
//
// The poll itself is ctxpoll.Err, which compares the deadline against
// the wall clock as well as the Done channel.
package chaineval

import (
	"context"
	"fmt"

	"chainlog/internal/ctxpoll"
)

// cancelCheckInterval is the work between two polls: one poll per 4096
// units bounds the cancellation latency to microseconds of extra work,
// and a poll — ctxpoll.Err reads the clock — costs nothing measurable
// beside them. The kernel polls where it checks the cap (limit), a level
// boundary where it counts its continuation points (tick), and the batch
// loops, which keep a local counter, when counter&cancelCheckMask == 0.
const (
	cancelCheckInterval = 4096
	cancelCheckMask     = cancelCheckInterval - 1
)

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

// limit is the node count past which the kernel stops: to fail at the
// run's cap, or to poll the context, once cancelCheckInterval nodes have
// been made since the last poll, whichever comes first. The kernel
// compares its count with it once per probe result, which it does for
// the cap anyway, so polling costs it nothing per node.
func (sc *runScratch) limit() int {
	if l := sc.polled + cancelCheckInterval; sc.maxNodes == 0 || l < sc.maxNodes {
		return l
	}
	return sc.maxNodes
}

// tick counts n units of work beside the nodes the run makes — the
// continuation points a level boundary resumes — and polls the context
// once cancelCheckInterval units have passed since the last poll.
func (sc *runScratch) tick(n int) error {
	if sc.polled -= n; sc.G.count-sc.polled < cancelCheckInterval {
		return nil
	}
	sc.polled = sc.G.count
	return sc.cn.check()
}
