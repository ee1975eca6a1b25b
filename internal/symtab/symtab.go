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
	"slices"
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
// lock.
type Table struct {
	mu     sync.RWMutex
	size   atomic.Int64 // baseLen+len(names); read lock-free by Len
	byName map[string]Sym
	names  []string // names[i] is the text of Sym(baseLen+i)

	// base, when non-nil, resolves Syms [1, baseLen-1] from a frozen
	// name block (see NewTableFromBase); the map/slice fields above then
	// hold only the overlay of names interned after construction. Both
	// fields are immutable once the table is built, so reads need no
	// lock. A table built by NewTable has baseLen 0 and names[0] = "∅".
	base    *base
	baseLen int
	// ordered is whether the base ids ascend in name order, checked when
	// the table is built: two base symbols then compare as integers.
	ordered bool
}

// NewTable returns an empty symbol table. Index 0 is reserved for None.
func NewTable() *Table {
	t := &Table{byName: make(map[string]Sym)}
	t.names = append(t.names, "∅")
	t.size.Store(1)
	return t
}

// Intern returns the Sym for name, creating it if needed.
func (t *Table) Intern(name string) Sym {
	if t.base != nil {
		if s, ok := t.base.lookup(name); ok {
			return s
		}
	}
	t.mu.RLock()
	s, ok := t.byName[name]
	t.mu.RUnlock()
	if ok {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s = t.internLocked(name)
	t.size.Store(int64(t.baseLen + len(t.names)))
	return s
}

// internLocked returns the overlay Sym of name, a name the base does not
// hold, giving it the next id if it is new. The caller holds the write
// lock and stores the size.
func (t *Table) internLocked(name string) Sym {
	if s, ok := t.byName[name]; ok {
		return s
	}
	s := Sym(t.baseLen + len(t.names))
	t.byName[name] = s
	t.names = append(t.names, name)
	return s
}

// InternAll returns the Syms of names, creating those it needs, as a
// loop of Intern would — a name already held keeps its Sym, a new one
// takes the next id, in the order given — under one acquisition of the
// lock. An empty overlay's map is sized for the batch once.
func (t *Table) InternAll(names []string) []Sym {
	syms := make([]Sym, len(names))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.byName) == 0 {
		t.byName = make(map[string]Sym, len(names))
	}
	t.names = slices.Grow(t.names, len(names))
	for i, name := range names {
		if t.base != nil {
			if s, ok := t.base.lookup(name); ok {
				syms[i] = s
				continue
			}
		}
		syms[i] = t.internLocked(name)
	}
	t.size.Store(int64(t.baseLen + len(t.names)))
	return syms
}

// Lookup returns the Sym for name without creating it.
func (t *Table) Lookup(name string) (Sym, bool) {
	if t.base != nil {
		if s, ok := t.base.lookup(name); ok {
			return s, true
		}
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	s, ok := t.byName[name]
	return s, ok
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
