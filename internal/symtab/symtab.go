// Package symtab provides interning of constant symbols and composite
// tuple terms into dense integer IDs.
//
// The evaluation algorithms in this module manipulate graph nodes of the
// form (automaton state, term). Interning every term — including the
// composite tuple terms t(c1,...,ck) introduced by the Section 4
// transformation — into an int32 keeps those nodes comparable and hashable
// in constant time and keeps the visited-set representation compact.
package symtab

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Sym is an interned symbol. The zero value is reserved and never issued
// for a real symbol, so Sym(0) can be used as a sentinel.
type Sym int32

// None is the reserved sentinel symbol. It is used, for example, as the
// paper's special symbol ∅ in the bin(∅, p(c̄)) construction.
const None Sym = 0

// Table interns strings and tuples to Syms and resolves them back.
// A Table is safe for concurrent use: interning takes a write lock,
// resolution a read lock, so prepared query plans may intern tuple terms
// from many goroutines at once.
type Table struct {
	mu     sync.RWMutex
	size   atomic.Int64 // baseLen+len(names); read lock-free by Len
	byName map[string]Sym
	names  []string // names[i] is the text of Sym(baseLen+i)

	// Tuple terms: a tuple (s1,...,sk) is interned under a key derived
	// from its elements. elems[i] is non-nil iff Sym(baseLen+i) is a
	// tuple term.
	byTuple map[string]Sym
	elems   [][]Sym

	// base, when non-nil, resolves Syms [1, baseLen-1] from a frozen
	// name block (see NewTableFromBase); the map/slice fields above then
	// hold only the overlay of names interned after construction. Both
	// fields are immutable once the table is built, so reads need no
	// lock. A table built by NewTable has baseLen 0 and names[0] = "∅".
	base    *base
	baseLen int
}

// NewTable returns an empty symbol table. Index 0 is reserved for None.
func NewTable() *Table {
	t := &Table{
		byName:  make(map[string]Sym),
		byTuple: make(map[string]Sym),
	}
	t.names = append(t.names, "∅")
	t.elems = append(t.elems, nil)
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
	if s, ok := t.byName[name]; ok {
		return s
	}
	s = Sym(t.baseLen + len(t.names))
	t.byName[name] = s
	t.names = append(t.names, name)
	t.elems = append(t.elems, nil)
	t.size.Store(int64(t.baseLen + len(t.names)))
	return s
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

// InternTuple returns the Sym for the tuple term t(elems...), creating it
// if needed. The empty tuple is a valid term (it arises when an adornment
// binds no argument positions).
func (t *Table) InternTuple(elems []Sym) Sym {
	key := tupleKey(elems)
	t.mu.RLock()
	s, ok := t.byTuple[key]
	t.mu.RUnlock()
	if ok {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.byTuple[key]; ok {
		return s
	}
	s = Sym(t.baseLen + len(t.names))
	t.byTuple[key] = s
	cp := make([]Sym, len(elems))
	copy(cp, elems)
	t.names = append(t.names, "")
	t.elems = append(t.elems, cp)
	t.size.Store(int64(t.baseLen + len(t.names)))
	return s
}

// IsTuple reports whether s is a tuple term. Base symbols are always
// plain constants: the snapshot writer refuses tuple terms.
func (t *Table) IsTuple(s Sym) bool {
	if int(s) < t.baseLen {
		return false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	i := int(s) - t.baseLen
	return i < len(t.elems) && t.elems[i] != nil
}

// TupleElems returns the elements of a tuple term, or nil if s is not one.
// The returned slice is immutable once interned and must not be modified.
func (t *Table) TupleElems(s Sym) []Sym {
	if int(s) < t.baseLen {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	i := int(s) - t.baseLen
	if i >= len(t.elems) {
		return nil
	}
	return t.elems[i]
}

// Name renders s back to text. Tuple terms render as t(e1,...,ek). Base
// symbols resolve without the lock: the base block is immutable.
func (t *Table) Name(s Sym) string {
	if s == None {
		return "∅"
	}
	if int(s) < t.baseLen {
		return t.base.name(s)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.name(s)
}

// AppendNames appends the text of every sym to dst, as Name renders it,
// and returns the extended slice. Base symbols resolve lock-free; the
// read lock is taken at most once, at the first overlay symbol, and held
// to the end of the call.
func (t *Table) AppendNames(dst []string, syms []Sym) []string {
	locked := false
	for _, s := range syms {
		if s != None && int(s) < t.baseLen {
			dst = append(dst, t.base.name(s))
			continue
		}
		if !locked {
			t.mu.RLock()
			locked = true
		}
		dst = append(dst, t.name(s))
	}
	if locked {
		t.mu.RUnlock()
	}
	return dst
}

// name resolves s with t.mu already held (Name recurses into tuple
// elements; RWMutex read locks must not be re-acquired while a writer
// waits).
func (t *Table) name(s Sym) string {
	if s == None {
		return "∅"
	}
	if int(s) < t.baseLen {
		return t.base.name(s)
	}
	i := int(s) - t.baseLen
	if i >= len(t.names) {
		return fmt.Sprintf("?sym%d", int(s))
	}
	if e := t.elems[i]; e != nil {
		parts := make([]string, len(e))
		for i, x := range e {
			parts[i] = t.name(x)
		}
		return "t(" + strings.Join(parts, ",") + ")"
	}
	return t.names[i]
}

// Len returns the number of interned symbols including the sentinel. It
// is lock-free, so evaluators may size dense visited pages from it on hot
// paths: because Syms are dense, Len is an exclusive upper bound on every
// Sym issued so far.
func (t *Table) Len() int {
	return int(t.size.Load())
}

func tupleKey(elems []Sym) string {
	var b strings.Builder
	b.Grow(len(elems) * 5)
	for _, e := range elems {
		v := uint32(e)
		b.WriteByte(byte(v))
		b.WriteByte(byte(v >> 8))
		b.WriteByte(byte(v >> 16))
		b.WriteByte(byte(v >> 24))
		b.WriteByte(',')
	}
	return b.String()
}
