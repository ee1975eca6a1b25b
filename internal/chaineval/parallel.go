// Parallel sharded traversal: when a run is given more than one worker,
// the evaluator advances the interpretation graph level-synchronously and
// shards large frontier levels across a bounded worker pool.
//
// Within one level the global visited set G is frozen: workers only read
// it, recording newly generated nodes in a private visitedSet (the same
// blocks the sequential path uses), so the inner loop takes no locks and
// issues no atomics. Workers claim chunks of the frontier from an atomic
// cursor, which rebalances skewed out-degrees without per-node
// synchronization. At the level boundary the main goroutine merges each
// worker's blocks into G word by word — one AND-NOT plus OR per 64
// symbols — and the surviving new bits become the next frontier, answers
// and continuation points. Cross-worker duplicates die in the merge;
// every node is still processed exactly once, so parallel
// and sequential evaluation perform the same probes and return identical
// answer sets and statistics.
//
// Levels below parFrontierThreshold run inline on the calling goroutine:
// sharding a dozen nodes costs more than it saves, and selective queries
// keep their sequential, allocation-free behavior.
package chaineval

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"chainlog/internal/automaton"
	"chainlog/internal/edb"
	"chainlog/internal/symtab"
)

// parFrontierThreshold is the frontier size at which a level is sharded
// across workers instead of processed inline. A variable (not a const)
// so equivalence tests can force sharding on small graphs.
var parFrontierThreshold = 128

// parChunkMin is the smallest frontier chunk a worker claims; small
// chunks rebalance skew, large ones amortize the cursor increment.
const parChunkMin = 16

// parWorker is one worker's private state for a single sharded level.
type parWorker struct {
	// seen holds the nodes this worker generated this level (minus those
	// already in the frozen global set); the merge walks its written
	// words.
	seen visitedSet
	// cont collects continuation points discovered this level.
	cont []node
	// work tallies the worker's probes, added to the run's at the level
	// boundary.
	work edb.Counters
}

// prepare readies a pooled worker for a level; warm workers reuse their
// blocks and buffer capacity.
func (pw *parWorker) prepare() {
	pw.seen.reset()
	pw.cont = pw.cont[:0]
	pw.work = edb.Counters{}
}

var parWorkerPool = sync.Pool{New: func() any { return new(parWorker) }}

// fanOut runs f(0) … f(W-1) concurrently — f(0) on the calling
// goroutine — and returns when all have finished. It is the shared
// shape of the evaluator's worker fan-outs; callers distribute work
// inside f (typically by claiming chunks from an atomic cursor).
func fanOut(W int, f func(w int)) {
	var wg sync.WaitGroup
	for i := 1; i < W; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	f(0)
	wg.Wait()
}

// traverseParallel drains the traversal seeded on sc.stack level by
// level, sharding levels of at least parFrontierThreshold nodes across
// the worker pool. It is the parallel counterpart of traverse: same
// visited set, same continuation collection, same node-cap error. The
// canceler is polled per level and per frontier node inline; sharded
// workers poll the context's done channel once per claimed chunk.
func (e *Engine) traverseParallel(sc *runScratch, workers int) error {
	for len(sc.stack) > 0 {
		if err := sc.cn.check(); err != nil {
			return err
		}
		// The stack holds the current level's nodes (pushed by visit);
		// swap it out so visit can accumulate the next level.
		sc.frontier, sc.stack = sc.stack, sc.frontier[:0]
		W := workers
		if byChunk := (len(sc.frontier) + parChunkMin - 1) / parChunkMin; W > byChunk {
			W = byChunk
		}
		if len(sc.frontier) < parFrontierThreshold || W <= 1 {
			if err := e.processLevel(sc); err != nil {
				return err
			}
			continue
		}
		if err := e.processLevelParallel(sc, W); err != nil {
			return err
		}
	}
	return nil
}

// processLevel advances one small level inline: the sequential edge
// dispatch over every frontier node, with visit accumulating the next
// level on sc.stack.
func (e *Engine) processLevel(sc *runScratch) error {
	for i, n := range sc.frontier {
		if i&cancelCheckMask == 0 {
			if err := sc.cn.check(); err != nil {
				return err
			}
		}
		if !e.follow(sc, n, 0) {
			return maxNodesErr(sc.maxNodes)
		}
	}
	return nil
}

// processLevelParallel shards one level across W workers (the calling
// goroutine is worker zero) and merges their results into the global
// traversal state.
func (e *Engine) processLevelParallel(sc *runScratch, W int) error {
	if cap(sc.workers) < W {
		sc.workers = make([]*parWorker, W)
	}
	ws := sc.workers[:W]
	for i := range ws {
		ws[i] = parWorkerPool.Get().(*parWorker)
		ws[i].prepare()
	}

	frontier := sc.frontier
	chunk := len(frontier) / (4 * W)
	if chunk < parChunkMin {
		chunk = parChunkMin
	}
	var cursor atomic.Int64
	work := func(pw *parWorker) {
		for {
			if sc.cn.stopped() {
				// Abandon the rest of the level; the coordinator's
				// post-merge check reports the cancellation.
				return
			}
			c := int(cursor.Add(1)) - 1
			lo := c * chunk
			if lo >= len(frontier) {
				return
			}
			hi := min(lo+chunk, len(frontier))
			for _, n := range frontier[lo:hi] {
				e.processNodeShard(sc.m, n, sc.rels, pw, &sc.G)
			}
		}
	}
	fanOut(W, func(w int) { work(ws[w]) })

	var err error
	for _, pw := range ws {
		if err == nil {
			err = e.mergeWorker(sc, pw)
		}
		parWorkerPool.Put(pw)
	}
	if err == nil {
		err = sc.cn.check()
	}
	return err
}

// processNodeShard is the worker-side edge dispatch for one node: reads
// of the frozen global set filter known nodes, everything newly
// generated lands in the worker's private set. No locks, no atomics.
func (e *Engine) processNodeShard(em *automaton.NFA, n node, rels []*edb.Relation, pw *parWorker, G *visitedSet) {
	continued := false
	var vs []symtab.Sym
	edges := em.Edges(n.q)
	for i := range edges {
		t := &edges[i]
		if t.Removed() {
			continue
		}
		switch t.Kind {
		case automaton.KindID:
			if !G.has(int(t.To), n.u) {
				pw.seen.visit(int(t.To), n.u)
			}
		case automaton.KindDerived:
			// The node is processed by exactly one worker in exactly one
			// level, so this keeps the merged continuation list
			// duplicate-free, like the sequential pop-once argument.
			if !continued {
				continued = true
				pw.cont = append(pw.cont, n)
			}
		default:
			if !t.Fan {
				vs = e.probe(t, n.u, rels, &pw.work)
			}
			to := int(t.To)
			for _, v := range vs {
				if !G.has(to, v) {
					pw.seen.visit(to, v)
				}
			}
		}
	}
}

// mergeWorker folds one worker's level results into the global state:
// continuation points and probe statistics append directly; the private
// blocks merge into G word by word, and bits that survive the AND-NOT
// against G (first worker to generate a node wins, duplicates die here)
// become graph nodes, answers and next-level frontier entries.
func (e *Engine) mergeWorker(sc *runScratch, pw *parWorker) error {
	sc.cont = append(sc.cont, pw.cont...)
	sc.work.Lookups += pw.work.Lookups
	sc.work.Retrieved += pw.work.Retrieved

	G := &sc.G
	for k, h := range pw.seen.hooked {
		q, i := int(h.q), int(h.i)
		b, g := pw.seen.blocks[k], G.hook(q, i)
		for m := b.used; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			neu := b.words[w] &^ g.words[w]
			if neu == 0 {
				continue
			}
			if g.words[w] == 0 {
				G.dirty = append(G.dirty, &g.words[w])
				g.used |= 1 << w
			}
			g.words[w] |= neu
			n := bits.OnesCount64(neu)
			G.count += n
			if q == sc.m.Final {
				sc.finals += n
			}
			base := symtab.Sym(i<<blockShift | w<<6)
			for ; neu != 0; neu &= neu - 1 {
				sc.stack = append(sc.stack, node{q, base + symtab.Sym(bits.TrailingZeros64(neu))})
			}
			if sc.maxNodes != 0 && G.count > sc.maxNodes {
				return maxNodesErr(sc.maxNodes)
			}
		}
	}
	return nil
}
