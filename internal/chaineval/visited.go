package chaineval

import (
	"math/bits"
	"sync"

	"chainlog/internal/automaton"
	"chainlog/internal/edb"
	"chainlog/internal/symtab"
)

const (
	blockShift = 12
	blockWords = 1 << (blockShift - 6)
)

// A block is the bitset of one automaton state over 1<<blockShift
// consecutive terms: block i of a state holds the terms u with
// u>>blockShift == i. used has bit w set once words[w] is written; only
// reset clears it, so after a clear it may name words that are zero.
type block struct {
	used  uint64
	words [blockWords]uint64
}

// visitedSet is the "have I seen node (q, u)" structure of the
// traversal, the paper's G. Each automaton state has a spine of blocks,
// hooked on first touch, so a membership test and insert are a spine
// load, a block load and an OR, with no hashing, and the memory held is
// proportional to the blocks visited, whatever the size of the symbol
// domain. A one-state set (state 0) serves where only the term matters.
type visitedSet struct {
	count  int
	spines [][]*block // spines[q][i] is block i of state q, nil until touched
	// dirty records the words written since the last clear, so clear
	// touches O(visited) words instead of whole blocks.
	dirty []*uint64
	// blocks holds every block the set owns: blocks[k] is hooked where
	// hooked[k] says, and the blocks past len(hooked) are zero, for the
	// next hooks. reset unhooks them all, so a warm run allocates nothing
	// and a pooled set owns the blocks of its largest run, not of every
	// run it served.
	blocks []*block
	hooked []blockRef
}

// blockRef addresses one hooked block: block i of state q.
type blockRef struct{ q, i int32 }

// clear empties the set and keeps its blocks hooked, for a caller that
// refills it within one run: regularImage clears once per closure
// element.
func (v *visitedSet) clear() {
	v.count = 0
	for _, w := range v.dirty {
		*w = 0
	}
	v.dirty = v.dirty[:0]
}

// reset empties the set and unhooks every block, so that a set keeps no
// block hooked past the run that touched it. Spines keep their length.
func (v *visitedSet) reset() {
	v.clear()
	for k, h := range v.hooked {
		v.spines[h.q][h.i] = nil
		v.blocks[k].used = 0
	}
	v.hooked = v.hooked[:0]
}

// block returns block i of state q, nil when it is not hooked.
func (v *visitedSet) block(q, i int) *block {
	if uint(q) < uint(len(v.spines)) {
		if s := v.spines[q]; uint(i) < uint(len(s)) {
			return s[i]
		}
	}
	return nil
}

// hook returns block i of state q, hooking an unhooked or new block
// first when there is none.
func (v *visitedSet) hook(q, i int) *block {
	if q >= len(v.spines) {
		v.spines = append(v.spines, make([][]*block, q+1-len(v.spines))...)
	}
	s := v.spines[q]
	if i >= len(s) {
		s = append(s, make([]*block, i+1-len(s))...)
		v.spines[q] = s
	}
	if s[i] == nil {
		if len(v.hooked) == len(v.blocks) {
			v.blocks = append(v.blocks, new(block))
		}
		s[i] = v.blocks[len(v.hooked)]
		v.hooked = append(v.hooked, blockRef{int32(q), int32(i)})
	}
	return s[i]
}

// visit marks (q, u) visited and reports whether it was new. The
// traversal calls it for every generated node, most of which are
// rejects; hooking a block is left to visitNew.
func (v *visitedSet) visit(q int, u symtab.Sym) bool {
	b := v.block(q, int(u)>>blockShift)
	if b == nil {
		return v.visitNew(q, u)
	}
	wi := (int(u) >> 6) & (blockWords - 1)
	w := &b.words[wi]
	bit := uint64(1) << (uint(u) & 63)
	old := *w
	if old&bit != 0 {
		return false
	}
	if old == 0 {
		v.dirty = append(v.dirty, w)
		b.used |= 1 << wi
	}
	*w = old | bit
	v.count++
	return true
}

// visitNew hooks the block of (q, u), all zero, and visits it.
func (v *visitedSet) visitNew(q int, u symtab.Sym) bool {
	b, wi := v.hook(q, int(u)>>blockShift), (int(u)>>6)&(blockWords-1)
	b.words[wi] = uint64(1) << (uint(u) & 63)
	b.used |= 1 << wi
	v.dirty = append(v.dirty, &b.words[wi])
	v.count++
	return true
}

// remove unmarks (q, u), which must be visited. Its word stays in used.
func (v *visitedSet) remove(q int, u symtab.Sym) {
	v.block(q, int(u)>>blockShift).words[(int(u)>>6)&(blockWords-1)] &^= uint64(1) << (uint(u) & 63)
	v.count--
}

// keep forgets the words written so far, which only a clear reads: a set
// a View keeps is never cleared, and the words its writes empty and set
// again would grow the list without bound.
func (v *visitedSet) keep() { v.dirty = v.dirty[:0] }

// has reports whether (q, u) is visited, without inserting.
func (v *visitedSet) has(q int, u symtab.Sym) bool {
	b := v.block(q, int(u)>>blockShift)
	return b != nil && b.words[(int(u)>>6)&(blockWords-1)]&(uint64(1)<<(uint(u)&63)) != 0
}

// or adds the terms of o's state 0 to v's state 0, word by word.
func (v *visitedSet) or(o *visitedSet) {
	if len(o.spines) == 0 {
		return
	}
	for i, ob := range o.spines[0] {
		if ob == nil {
			continue
		}
		b := v.hook(0, i)
		for m := ob.used; m != 0; m &= m - 1 {
			wi := bits.TrailingZeros64(m)
			old, x := b.words[wi], ob.words[wi]
			if old == 0 && x != 0 {
				v.dirty = append(v.dirty, &b.words[wi])
				b.used |= 1 << wi
			}
			b.words[wi] = old | x
			v.count += bits.OnesCount64(x &^ old)
		}
	}
}

// appendState appends the terms visited at state q to dst in ascending
// order, walking q's blocks in index order and the written words of each.
func (v *visitedSet) appendState(dst []symtab.Sym, q int) []symtab.Sym {
	if q >= len(v.spines) {
		return dst
	}
	for i, b := range v.spines[q] {
		if b == nil {
			continue
		}
		for m := b.used; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			for x := b.words[w]; x != 0; x &= x - 1 {
				dst = append(dst, symtab.Sym(i<<blockShift|w<<6|bits.TrailingZeros64(x)))
			}
		}
	}
	return dst
}

// runScratch is the per-run working state of the evaluator — the main
// loop's visited set, stack and continuation list, and the cyclic guard's
// smaller sets — kept in a sync.Pool, so a warm run allocates nothing.
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
	rels   []*edb.Relation
	G      visitedSet
	stack  []node
	cont   []node
	resume []resumePoint
	// finals counts the nodes visited at Final so far: the answers, read
	// off Final's blocks when the run ends.
	finals int
	// maxNodes is the run's cap on G's nodes; 0 means unlimited.
	maxNodes int

	// cyclic-guard scratch: seen, the one-state set of a and the
	// continuation terms that decides when the bound is worth computing;
	// the node-visited set and stack for regularImage plus a one-state term
	// set and buffers for the accessible-closure computations.
	seen   visitedSet
	rG     visitedSet
	rStack []node
	terms  visitedSet
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
