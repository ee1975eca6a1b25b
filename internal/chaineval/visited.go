package chaineval

import (
	"math/bits"
	"slices"
	"sync"

	"chainlog/internal/automaton"
	"chainlog/internal/edb"
	"chainlog/internal/symtab"
)

// denseVisitedLimit is the Sym-domain size above which the evaluator's
// visited sets fall back to hashing: beyond it one dense page per
// automaton state would exceed half a MiB and the flat layout stops
// paying for itself. Syms are dense (interned sequentially), so below
// the limit a page wastes little space.
const denseVisitedLimit = 1 << 22

// denseWordBudget caps the total words a visitedSet's dense pages may
// hold (1<<22 words = 32 MiB). Expanding queries allocate one page per
// visited automaton state, so a large domain times many EM states could
// otherwise grow without bound; past the budget the set migrates its
// contents to the sparse map, trading speed for O(visited) memory. A
// variable (not a const) so tests can force a migration mid-run.
var denseWordBudget = 1 << 22

// visitedSet is the "have I seen node (q, u)" structure of the
// traversal, the paper's G. In dense mode it keeps one bitset page of
// the Sym domain per automaton state — membership test and insert are
// two array loads and an OR, with zero hashing — and in sparse mode
// (domain above denseVisitedLimit, or forced by Options.sparseVisited)
// it degrades to the classic map of nodes.
type visitedSet struct {
	count int
	words int        // initial page size in words (exact when SymBound is known)
	alloc int        // total words across pages, checked against denseWordBudget
	pages [][]uint64 // dense: pages[q] is a bitset over Sym, nil until q is visited
	// dirty records the words written since the last reset, so reset
	// clears O(visited) words instead of sweeping every retained page —
	// a selective query touching 10 nodes must not pay an O(domain)
	// memset, and regularImage resets once per closure element.
	dirty []dirtyWord
	m     map[node]bool // sparse fallback; nil in dense mode
}

// dirtyWord addresses one written word: pages[q][w].
type dirtyWord struct{ q, w int32 }

// reset prepares the set for a run over the given Sym bound. It keeps
// page capacity from earlier runs, so a pooled steady-state run
// allocates nothing.
func (v *visitedSet) reset(bound int, sparse bool) {
	v.count = 0
	if sparse {
		if v.m == nil {
			v.m = make(map[node]bool)
		} else {
			clear(v.m)
		}
		return
	}
	v.m = nil
	v.words = (bound + 63) / 64
	// Pages are all-zero except at dirty words (fresh pages come zeroed
	// from make, and growth copies preserve word indexes).
	for _, d := range v.dirty {
		v.pages[d.q][d.w] = 0
	}
	v.dirty = v.dirty[:0]
}

// visit marks (q, u) visited and reports whether it was new. The body is
// the dense in-bounds test-and-set — the traversal calls it for every
// generated node, most of which are rejects — with page growth, the
// sparse map and the budget migration split into visitSlow.
func (v *visitedSet) visit(q int, u symtab.Sym) bool {
	w := int(u) >> 6
	if v.m == nil && q < len(v.pages) {
		if p := v.pages[q]; w < len(p) {
			bit := uint64(1) << (uint(u) & 63)
			old := p[w]
			if old&bit != 0 {
				return false
			}
			if old == 0 {
				v.dirty = append(v.dirty, dirtyWord{int32(q), int32(w)})
			}
			p[w] = old | bit
			v.count++
			return true
		}
	}
	return v.visitSlow(q, u)
}

// visitSlow handles the paths visit keeps off the hot loop: the sparse
// map, growing the page spine to a new state, and growing a page past
// the known bound (tuple terms interned mid-run).
func (v *visitedSet) visitSlow(q int, u symtab.Sym) bool {
	if v.m != nil {
		n := node{q, u}
		if v.m[n] {
			return false
		}
		v.m[n] = true
		v.count++
		return true
	}
	for q >= len(v.pages) {
		v.pages = append(v.pages, nil)
	}
	w := int(u) >> 6
	p := v.pages[q]
	if w >= len(p) {
		// First visit of state q, or the symbol domain grew past the
		// page. Doubling keeps repeated mid-run growth amortized linear.
		np := make([]uint64, max(w+1, max(v.words, 2*len(p))))
		v.alloc += len(np) - len(p)
		if v.alloc > denseWordBudget {
			v.migrateToSparse()
			return v.visitSlow(q, u)
		}
		copy(np, p)
		p = np
		v.pages[q] = p
	}
	bit := uint64(1) << (uint(u) & 63)
	if p[w]&bit != 0 {
		return false
	}
	if p[w] == 0 {
		v.dirty = append(v.dirty, dirtyWord{int32(q), int32(w)})
	}
	p[w] |= bit
	v.count++
	return true
}

// migrateToSparse moves every visited node into the map fallback and
// frees the dense pages: an expanding query whose states × domain
// product outgrew denseWordBudget finishes the run (and, via the pooled
// scratch, future oversized runs start sparse only after reset asks for
// dense again and the budget trips again — pages rebuild lazily).
func (v *visitedSet) migrateToSparse() {
	m := make(map[node]bool, v.count)
	for q, p := range v.pages {
		for w, x := range p {
			for x != 0 {
				m[node{q, symtab.Sym(w<<6 + bits.TrailingZeros64(x))}] = true
				x &= x - 1
			}
		}
	}
	v.m = m
	v.pages = nil
	v.dirty = v.dirty[:0]
	v.alloc = 0
}

// pageForMerge returns the dense page of state q grown to cover word w,
// for the parallel merge's word-level unions; nil when growing it
// tripped the dense budget and the set migrated to sparse (the caller
// then inserts node by node).
func (v *visitedSet) pageForMerge(q, w int) []uint64 {
	for q >= len(v.pages) {
		v.pages = append(v.pages, nil)
	}
	p := v.pages[q]
	if w < len(p) {
		return p
	}
	np := make([]uint64, max(w+1, max(v.words, 2*len(p))))
	v.alloc += len(np) - len(p)
	if v.alloc > denseWordBudget {
		v.migrateToSparse()
		return nil
	}
	copy(np, p)
	v.pages[q] = np
	return np
}

// appendState appends the terms visited at state q to dst in ascending
// order, reading q's page at the words written since the last reset, in
// word order: only the word indexes are sorted, not the terms. It is for
// dense mode; words is scratch, returned for reuse.
func (v *visitedSet) appendState(dst []symtab.Sym, q int, words []int32) ([]symtab.Sym, []int32) {
	words = words[:0]
	for _, d := range v.dirty {
		if int(d.q) == q {
			words = append(words, d.w)
		}
	}
	if len(words) == 0 {
		return dst, words
	}
	slices.Sort(words)
	p := v.pages[q]
	for _, w := range words {
		for x := p[w]; x != 0; x &= x - 1 {
			dst = append(dst, symtab.Sym(int(w)<<6+bits.TrailingZeros64(x)))
		}
	}
	return dst, words
}

// has reports whether (q, u) is visited, without inserting.
func (v *visitedSet) has(q int, u symtab.Sym) bool {
	if v.m != nil {
		return v.m[node{q, u}]
	}
	if q >= len(v.pages) {
		return false
	}
	p := v.pages[q]
	w := int(u) >> 6
	if w >= len(p) {
		return false
	}
	return p[w]&(uint64(1)<<(uint(u)&63)) != 0
}

// symSet is a visitedSet over bare terms (single page); it backs the
// cyclic-guard closures where only the term matters, not the state.
type symSet struct {
	bits  []uint64
	dirty []int32 // words written since the last reset
	m     map[symtab.Sym]bool
}

func (s *symSet) reset(bound int, sparse bool) {
	if sparse {
		if s.m == nil {
			s.m = make(map[symtab.Sym]bool)
		} else {
			clear(s.m)
		}
		return
	}
	s.m = nil
	for _, w := range s.dirty {
		s.bits[w] = 0
	}
	s.dirty = s.dirty[:0]
	if w := (bound + 63) / 64; w > len(s.bits) {
		s.bits = make([]uint64, w)
	}
}

// add marks u present and reports whether it was new.
func (s *symSet) add(u symtab.Sym) bool {
	if s.m != nil {
		if s.m[u] {
			return false
		}
		s.m[u] = true
		return true
	}
	w := int(u) >> 6
	if w >= len(s.bits) {
		np := make([]uint64, max(w+1, 2*len(s.bits)))
		copy(np, s.bits)
		s.bits = np
	}
	bit := uint64(1) << (uint(u) & 63)
	if s.bits[w]&bit != 0 {
		return false
	}
	if s.bits[w] == 0 {
		s.dirty = append(s.dirty, int32(w))
	}
	s.bits[w] |= bit
	return true
}

// runScratch is the per-run working state of the evaluator: the visited
// pages, traversal stack, continuation list and answer buffer of the
// main loop, plus the smaller sets driving the cyclic-guard closures.
// Engines keep these in a sync.Pool so a prepared plan's steady-state
// Run reuses one warm allocation-free instance.
type runScratch struct {
	res Result
	// cn is the run's cancellation poller. It lives in the scratch so
	// taking its address (the traversal closures and helpers share one
	// poller) does not heap-allocate on the warm path.
	cn canceler
	// em is the run's mutable EM(p,i) automaton for non-regular
	// equations; CloneInto reuses its storage run over run. m is the
	// automaton the run traverses: &em, or the engine's compiled M(e_p)
	// when the equation is regular and nothing will be spliced into it.
	em automaton.NFA
	m  *automaton.NFA
	// rels is the run's view of the engine's resolved-relation table.
	rels []*edb.Relation
	// bound and sparse are the run's visited-set mode (visitedMode), which
	// every visited set of the run is reset to.
	bound   int
	sparse  bool
	G       visitedSet
	stack   []node
	cont    []node
	resume  []resumePoint
	answers []symtab.Sym
	// words holds the final page's written words while the answers are
	// read off it in order.
	words []int32

	// cyclic-guard scratch: node-visited set and stack for regularImage
	// plus term sets and buffers for the accessible-closure computations.
	rG     visitedSet
	rStack []node
	terms  symSet
	d1     []symtab.Sym
	d2     []symtab.Sym
	img    []symtab.Sym

	// work is the run's tally of its extensional probes.
	work edb.Counters

	// parallel-traversal scratch: the level being processed (swapped with
	// stack at each level boundary) and the worker-handle spine.
	frontier []node
	workers  []*parWorker
}

// resumePoint is a continuation point whose state has been expanded: the
// next iteration follows n's transitions from edge index from on, the
// entries of the copies spliced in.
type resumePoint struct {
	n    node
	from int
}

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// acquireScratch takes a warm scratch from the pool.
func acquireScratch() *runScratch { return scratchPool.Get().(*runScratch) }

// releaseScratch returns sc to the pool. Slices keep their capacity;
// sets are cleared on the next reset. The canceler, automaton and
// relation table are dropped so the pool does not pin a request's
// context or an engine.
func releaseScratch(sc *runScratch) {
	sc.cn = canceler{}
	sc.m, sc.rels = nil, nil
	scratchPool.Put(sc)
}
