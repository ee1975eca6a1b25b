package edb

import "chainlog/internal/symtab"

// Cursor reads the tuples of one probe a tuple at a time, in the order
// MatchEach hands them out: what a join pulls a step's candidates
// through instead of taking each in a callback. Relation.Match,
// Relation.Window, Table.Window and Pairs open it; Next advances it to
// the next tuple, which Row returns. A Cursor holds no lock and
// allocates nothing once its scratch tuple is made (the first scan or
// pairs it opens). Like any reader it must not outlive a write to its
// relation, but a reader may Add to the table it is reading: a window
// stops at its hi, and a chain is followed from the last row returned,
// so an index rehashed in between is read correctly.
//
// Next writes no pointer, so reading a cursor that lives on the heap
// costs no write barrier while the collector runs: only opening it does.
type Cursor struct {
	kind cursorKind
	n    int // the tuples Next has returned
	// A table window: the table (nil for a scan or pairs), the chain's
	// index (a slots cursor steps through the slots instead), the bound
	// key, the slot to read next (a chain's first, until at names the
	// last row returned) and the window's end.
	t     *Table
	ix    *index
	key   []symtab.Sym
	s, at int
	hi    int
	// A frozen CSR scan reads key u's neighbors nbr[off[u]:off[u+1]]; a
	// pairs cursor reads nbr with the other column fixed in tu. i is the
	// next neighbor, col the column nbr fills.
	off []int32
	nbr []symtab.Sym
	u   int
	i   int
	col int
	tu  []symtab.Sym
}

type cursorKind uint8

const (
	cursorNone cursorKind = iota
	cursorSlots
	cursorChain
	cursorScan
	cursorPairs
)

// Reset empties the cursor: Next reports false until it is opened.
func (c *Cursor) Reset() { c.kind, c.n = cursorNone, 0 }

// Count returns the number of tuples Next has returned since the cursor
// was opened: once Next has reported false, what MatchEach would return.
func (c *Cursor) Count() int { return c.n }

// Row returns the tuple Next advanced to. It aliases the table's arena
// or the cursor's scratch: it is valid until the next call to Next or
// the next write.
func (c *Cursor) Row() []symtab.Sym {
	if c.t != nil {
		return c.t.Row(c.at)
	}
	return c.tu
}

// Slot returns the slot of the row Next advanced to, on a cursor opened
// over a table window.
func (c *Cursor) Slot() int { return c.at }

// Pairs opens c over the binary tuples that hold key in the column
// other than col and each of nbr in col, in nbr's order: the neighbor
// list of a probe with one column bound.
func (c *Cursor) Pairs(col int, key symtab.Sym, nbr []symtab.Sym) {
	c.scratch()
	c.kind, c.n, c.t, c.nbr, c.i, c.col = cursorPairs, 0, nil, nbr, 0, col
	c.tu[1-col] = key
}

// Neighbors returns the neighbor list of a cursor opened by Pairs, and
// false for any other: a reader that binds the one free column itself
// reads the list whole.
func (c *Cursor) Neighbors() ([]symtab.Sym, bool) {
	return c.nbr, c.kind == cursorPairs
}

// CSR returns the offsets and neighbors of a cursor opened over a whole
// frozen binary relation — the tuples (u, v) for each v in
// nbr[off[u]:off[u+1]] — and false for any other.
func (c *Cursor) CSR() ([]int32, []symtab.Sym, bool) {
	return c.off, c.nbr, c.kind == cursorScan
}

func (c *Cursor) scratch() {
	if len(c.tu) < 2 {
		c.tu = make([]symtab.Sym, 2)
	}
}

// Next advances c to its next tuple and reports whether there was one.
func (c *Cursor) Next() bool {
	switch c.kind {
	case cursorSlots:
		for ; c.s < c.hi; c.s++ {
			if !c.t.isDead(c.s) {
				c.at = c.s
				c.s++
				c.n++
				return true
			}
		}
	case cursorChain:
		s := c.s
		if c.at >= 0 {
			s = int(c.ix.links[c.at].next)
		}
		for ; s >= 0 && s < c.hi; s = int(c.ix.links[s].next) {
			if c.ix.matches(c.t.Row(s), c.key) {
				c.at = s
				c.n++
				return true
			}
		}
	case cursorScan:
		for ; c.u+1 < len(c.off); c.u++ {
			if c.i < int(c.off[c.u+1]) {
				c.tu[0], c.tu[1] = symtab.Sym(c.u), c.nbr[c.i]
				c.i++
				c.n++
				return true
			}
		}
	case cursorPairs:
		if c.i < len(c.nbr) {
			c.tu[c.col] = c.nbr[c.i]
			c.i++
			c.n++
			return true
		}
	}
	c.kind = cursorNone
	return false
}

// Window opens c over the live rows in the slot window [lo, hi) whose
// mask columns equal bound (one value per set bit, in column order; mask
// 0 is every row), in arrival order: Each's rows.
func (t *Table) Window(c *Cursor, mask uint32, bound []symtab.Sym, lo, hi int) {
	c.n, c.t, c.at, c.hi = 0, t, -1, hi
	switch {
	case mask == 0:
		c.kind, c.s = cursorSlots, lo
	case mask == 1<<uint(t.arity)-1:
		// Every column bound: at most one row, found in the dedupe set.
		c.kind, c.s = cursorSlots, t.Find(bound)
		if c.s < lo {
			c.s = hi
		}
		c.hi = min(hi, c.s+1)
	default:
		ix := t.index(mask)
		b := ix.buckets[hashKey(bound)>>ix.shift]
		s := b.head
		if lo > 0 {
			// A window is usually the end of the chain: find its first
			// matching slot from the tail.
			s = -1
			for p := b.tail; p >= 0 && int(p) >= lo; p = ix.links[p].prev {
				if ix.matches(t.Row(int(p)), bound) {
					s = p
				}
			}
		}
		c.kind, c.ix, c.key, c.s = cursorChain, ix, bound, int(s)
	}
}

// Match opens c over the tuples MatchEach hands out: a frozen binary
// relation's straight off its CSR, any other's through its table. A nil
// relation has none.
func (r *Relation) Match(c *Cursor, mask uint32, bound []symtab.Sym) {
	switch {
	case r == nil:
		c.Reset()
	case r.tab.arity == 2 && r.frozen && !r.thawed.Load():
		// Frozen binary: no bound column is a walk of the forward CSR, a
		// single one a CSR lookup and both a Contains — serving them here
		// keeps probes on a mapped snapshot from paying the O(n) thaw and
		// index build.
		switch mask {
		case 0:
			fwd := r.fwd.Load()
			c.scratch()
			c.kind, c.n, c.t, c.off, c.nbr, c.u, c.i = cursorScan, 0, nil, fwd.off, fwd.nbr, 0, 0
		case 1 << 0:
			c.Pairs(1, bound[0], r.fwd.Load().lookup(bound[0]))
		case 1 << 1:
			c.Pairs(0, bound[0], r.rev.Load().lookup(bound[0]))
		default:
			var nbr []symtab.Sym
			if r.containsFrozenBinary(bound) {
				nbr = bound[1:2]
			}
			c.Pairs(1, bound[0], nbr)
		}
	default:
		r.tab.Window(c, mask, bound, 0, r.tab.n)
	}
}

// Window is Match cut to the slots in [lo, hi): on a relation nothing is
// removed from, the matching tuples among those that arrived (lo+1)th to
// hi-th. A hi beyond the last slot means the last slot. A frozen binary
// relation thaws.
func (r *Relation) Window(c *Cursor, mask uint32, bound []symtab.Sym, lo, hi int) {
	if r == nil {
		c.Reset()
		return
	}
	r.ensureRows()
	r.tab.Window(c, mask, bound, lo, min(hi, r.tab.n))
}
