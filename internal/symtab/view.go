package symtab

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// View resolves the symbols of one answer to text. Base symbols resolve
// through the frozen block, lock-free. The overlay is read through a copy
// of its arena's blob and offsets, taken under the table's read lock at
// the first overlay symbol, so the lock is taken at most once however
// many names are read: the arena only grows, and a name's bytes never
// change once written. A symbol past the copy — one interned since, or
// none at all — takes the lock again.
type View struct {
	t    *Table
	blob []byte
	offs []uint32
}

// View returns a resolver for t's symbols, to be used for one answer.
func (t *Table) View() View { return View{t: t} }

// Name renders s back to text, as Table.Name does.
func (v *View) Name(s Sym) string {
	t := v.t
	switch {
	case s == None:
		return "∅"
	case int(s) < t.baseLen:
		return t.base.text(int(s))
	}
	k := int(s) - t.lo()
	if k >= len(v.offs) {
		t.mu.RLock()
		v.blob, v.offs = t.overlay.b.blob, t.overlay.b.offs
		t.mu.RUnlock()
		if k >= len(v.offs) {
			return fmt.Sprintf("?sym%d", int(s))
		}
	}
	return text(v.blob, v.offs, k)
}

// SortRows sorts rows of w symbols each, laid out one after another in
// cells, by name, column by column, bytewise: the order Answer rows
// promise. When every cell is a symbol of a base whose ids ascend in name
// order, the cells compare as integers, and a one-column answer that
// already ascends — what a traversal over a snapshot's base hands back —
// is found so in one pass and not moved. Otherwise every cell is named
// once, with the table's lock taken at most once, and the rows compare
// by those names.
func (t *Table) SortRows(cells []Sym, w int) {
	if w == 0 || len(cells) <= w {
		return
	}
	asInts, ascending := t.intOrder(cells)
	switch {
	case asInts && w == 1:
		if !ascending {
			slices.Sort(cells)
		}
	case asInts:
		sort.Sort(&rowSorter{cells: cells, w: w})
	case w == 1:
		named := make([]namedSym, len(cells))
		v := t.View()
		for i, s := range cells {
			named[i] = namedSym{v.Name(s), s}
		}
		slices.SortFunc(named, func(a, b namedSym) int { return strings.Compare(a.name, b.name) })
		for i := range named {
			cells[i] = named[i].s
		}
	default:
		sort.Sort(&rowSorter{cells: cells, names: t.AppendNames(make([]string, 0, len(cells)), cells), w: w})
	}
}

// intOrder reports, in one pass, whether every symbol belongs to a base
// whose ids ascend in name order, so that the symbols compare as
// integers, and if so whether they strictly ascend.
func (t *Table) intOrder(syms []Sym) (asInts, ascending bool) {
	if !t.ordered {
		return false, false
	}
	ascending = true
	for i, s := range syms {
		if s == None || int(s) >= t.baseLen {
			return false, false
		}
		if i > 0 && s <= syms[i-1] {
			ascending = false
		}
	}
	return true, ascending
}

// namedSym is a one-column cell with its name, the sort key.
type namedSym struct {
	name string
	s    Sym
}

// rowSorter sorts the rows of cells in place, w symbols at a time, by
// names (the cells' names, in step with cells) or, with names nil, by
// the symbols as integers.
type rowSorter struct {
	cells []Sym
	names []string
	w     int
}

func (r *rowSorter) Len() int { return len(r.cells) / r.w }

func (r *rowSorter) Less(i, j int) bool {
	for a, b := i*r.w, j*r.w; a < (i+1)*r.w; a, b = a+1, b+1 {
		c := cmp.Compare(r.cells[a], r.cells[b])
		if r.names != nil {
			c = strings.Compare(r.names[a], r.names[b])
		}
		if c != 0 {
			return c < 0
		}
	}
	return false
}

func (r *rowSorter) Swap(i, j int) {
	for a, b := i*r.w, j*r.w; a < (i+1)*r.w; a, b = a+1, b+1 {
		r.cells[a], r.cells[b] = r.cells[b], r.cells[a]
		if r.names != nil {
			r.names[a], r.names[b] = r.names[b], r.names[a]
		}
	}
}
