package symtab

import (
	"fmt"
	"hash/maphash"
	"unsafe"
)

// base is a frozen block of pre-interned constant names, typically
// aliasing the sections of a mapped binary snapshot. It resolves Syms
// [1, n] without ever copying a name: resolution slices the shared blob.
// Reverse lookup is one probe of an open-addressing table of base ids
// keyed by a hash of the name bytes, built once when the table is
// constructed. The table has a power-of-two number of 4-byte slots, at
// least 2n, so it is at most half full; at 50,000 names it takes under a
// millisecond to build and 0.5 MB. That build is the only per-symbol work
// of opening a snapshot, and no name is copied.
type base struct {
	n     int
	blob  []byte
	offs  []uint32 // len n+1; name of Sym(i) is blob[offs[i-1]:offs[i]]
	seed  maphash.Seed
	slots []int32 // a base id per occupied slot, 0 when empty; len a power of two
}

// name resolves a base Sym to its text, aliasing the blob. The returned
// string is only valid while the underlying mapping is.
func (b *base) name(s Sym) string {
	i := int(s)
	if i < 1 || i > b.n {
		return fmt.Sprintf("?sym%d", i)
	}
	return b.text(i)
}

// text is name for an id known to be in [1, n].
func (b *base) text(i int) string {
	lo, hi := b.offs[i-1], b.offs[i]
	if lo == hi {
		return ""
	}
	return unsafe.String(&b.blob[lo], int(hi-lo))
}

// lookup finds the Sym whose text is name: linear probing from the
// name's hash until the id or an empty slot.
func (b *base) lookup(name string) (Sym, bool) {
	mask := uint64(len(b.slots) - 1)
	for i := maphash.String(b.seed, name) & mask; ; i = (i + 1) & mask {
		id := b.slots[i]
		if id == 0 {
			return None, false
		}
		if b.text(int(id)) == name {
			return Sym(id), true
		}
	}
}

// index builds the slot table, inserting every id; a name met twice is
// an error, since the second id could never be found.
func (b *base) index() error {
	size := 1
	for size < 2*b.n {
		size <<= 1
	}
	b.seed = maphash.MakeSeed()
	b.slots = make([]int32, size)
	mask := uint64(size - 1)
	for id := 1; id <= b.n; id++ {
		name := b.text(id)
		i := maphash.String(b.seed, name) & mask
		for ; b.slots[i] != 0; i = (i + 1) & mask {
			if prev := b.slots[i]; b.text(int(prev)) == name {
				return fmt.Errorf("symtab: base name %q repeated (ids %d and %d)", name, prev, id)
			}
		}
		b.slots[i] = int32(id)
	}
	return nil
}

// NewTableFromBase returns a table whose Syms 1..len(offs)-1 resolve
// through the given frozen name block: blob holds the concatenated name
// bytes and offs delimits them (offs[i-1]:offs[i] is the name of Sym(i)).
// Both slices are aliased, not copied — they may point into a read-only
// file mapping, and must stay valid and unmodified for the table's
// lifetime. New names intern into a heap overlay above the base ids, so
// the table stays dense.
//
// The structural invariants (monotone offsets in range, every name
// distinct) are validated; the name index is built here, so this costs
// time and memory in proportion to the symbol count.
func NewTableFromBase(blob []byte, offs []uint32) (*Table, error) {
	if len(offs) == 0 {
		return nil, fmt.Errorf("symtab: base has no offsets (want one more than the symbol count)")
	}
	n := len(offs) - 1
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			return nil, fmt.Errorf("symtab: base offsets not monotone at %d", i)
		}
	}
	if int(offs[n]) > len(blob) {
		return nil, fmt.Errorf("symtab: base offsets exceed blob (%d > %d)", offs[n], len(blob))
	}
	b := &base{n: n, blob: blob, offs: offs}
	if err := b.index(); err != nil {
		return nil, err
	}
	t := &Table{
		byName:  make(map[string]Sym),
		byTuple: make(map[string]Sym),
		base:    b,
		baseLen: n + 1, // ids [0, n]: the sentinel plus the base names
	}
	t.size.Store(int64(t.baseLen))
	return t, nil
}

// BaseLen returns the number of Syms resolved by the table's frozen base
// (including the sentinel), or 0 for a table built empty. Syms below
// BaseLen came from the snapshot; Syms at or above it were interned live.
func (t *Table) BaseLen() int { return t.baseLen }
