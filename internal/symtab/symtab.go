// Package symtab interns the constants of facts and rules into dense
// integer IDs.
//
// The evaluation algorithms in this module manipulate graph nodes of the
// form (automaton state, term). Interning every constant into an int32
// keeps those nodes comparable and hashable in constant time and keeps
// the visited-set representation compact. The tuple terms t(c1,...,ck)
// of the Section 4 transformation are not symbols: the call that meets
// them numbers them (package binchain).
package symtab

import (
	"sync"
	"sync/atomic"
)

// Sym is an interned symbol. The zero value is reserved and never issued
// for a real symbol, so Sym(0) can be used as a sentinel.
type Sym int32

// None is the reserved sentinel symbol. It is used, for example, as the
// paper's special symbol ∅ in the bin(∅, p(c̄)) construction.
const None Sym = 0

// Table interns strings to Syms and resolves them back. A Table is safe
// for concurrent use: interning takes a write lock, resolution a read
// lock. The names interned after construction live in overlay, a Names
// arena that copies them: its name k is Sym(lo()+k).
type Table struct {
	mu      sync.RWMutex
	size    atomic.Int64 // lo()+1+the overlay's count; read lock-free by Len
	overlay Names

	// base, on a table built by NewTableFromBase, resolves Syms
	// [1, baseLen-1] from a frozen name block. Both fields are immutable
	// once the table is built, so reads need no lock. A table built by
	// NewTable has an empty base and baseLen 0.
	base    base
	baseLen int
	// ordered is whether the base ids ascend in name order, checked when
	// the table is built: two base symbols then compare as integers.
	ordered bool
}

// NewTable returns an empty symbol table. Index 0 is reserved for None.
func NewTable() *Table {
	t := &Table{}
	t.size.Store(1)
	return t
}

// lo is the Sym below the overlay's first: the last base Sym, or None.
func (t *Table) lo() int { return max(t.baseLen, 1) - 1 }

// Intern returns the Sym for name, creating it if needed.
func (t *Table) Intern(name string) Sym {
	if s, ok := t.Lookup(name); ok {
		return s
	}
	t.mu.Lock()
	defer t.unlock()
	if s, ok := t.base.lookup(name); ok {
		return s
	}
	t.overlay.grow(1)
	k, err := t.overlay.add(name)
	if err != nil {
		panic(err) // past 4 GiB of overlay text an offset would wrap; Intern has no error to return
	}
	return Sym(t.lo() + int(k))
}

// unlock publishes the size of the overlay and releases the write lock.
func (t *Table) unlock() {
	t.size.Store(int64(t.lo() + 1 + t.overlay.b.n))
	t.mu.Unlock()
}

// InternAll returns the Syms of names, creating those it needs, as a
// loop of Intern would — a name already held keeps its Sym, a new one
// takes the next id, in the order given — under one acquisition of the
// lock. The overlay grows once, by the new names alone; a batch that
// would take its text past 4 GiB panics and adds nothing.
func (t *Table) InternAll(names []string) []Sym {
	syms := make([]Sym, len(names))
	t.mu.Lock()
	defer t.unlock()
	for i, name := range names {
		syms[i], _ = t.base.lookup(name)
	}
	if err := t.overlay.addAll(names, syms, t.lo()); err != nil {
		panic(err)
	}
	return syms
}

// Lookup returns the Sym for name without creating it.
func (t *Table) Lookup(name string) (Sym, bool) {
	if s, ok := t.base.lookup(name); ok {
		return s, true
	}
	t.mu.RLock()
	k, ok := t.overlay.b.lookup(name)
	t.mu.RUnlock()
	if !ok {
		return None, false
	}
	return Sym(t.lo() + int(k)), true
}

// Name renders s back to text. Base symbols resolve without the lock:
// the base block is immutable.
func (t *Table) Name(s Sym) string {
	v := t.View()
	return v.Name(s)
}

// AppendNames appends the text of every sym to dst, as Name renders it,
// and returns the extended slice. Base symbols resolve lock-free; the
// read lock is taken at most once, at the first overlay symbol (see
// View).
func (t *Table) AppendNames(dst []string, syms []Sym) []string {
	v := t.View()
	for _, s := range syms {
		dst = append(dst, v.Name(s))
	}
	return dst
}

// Len returns the number of interned symbols including the sentinel,
// without the lock. Syms are dense, so Len is an exclusive upper bound on
// every Sym issued so far.
func (t *Table) Len() int {
	return int(t.size.Load())
}
