package symtab

import (
	"fmt"
	"hash/maphash"
	"math"
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

// text resolves a base id in [1, n] to its name, aliasing the blob. The
// returned string is only valid while the underlying mapping is.
func (b *base) text(i int) string { return text(b.blob, b.offs, i) }

// text is the name of id i in [1, len(offs)-1] of a blob and its offsets.
func text(blob []byte, offs []uint32, i int) string {
	lo, hi := offs[i-1], offs[i]
	if lo == hi {
		return ""
	}
	return unsafe.String(&blob[lo], int(hi-lo))
}

// lookup finds the Sym whose text is name: linear probing from the
// name's hash until the id or an empty slot. A base without slots is empty.
func (b *base) lookup(name string) (Sym, bool) {
	if len(b.slots) == 0 {
		return None, false
	}
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

// index builds a slot table of at least minSlots slots, inserting every
// id; a name met twice is an error, since the second id could never be
// found.
func (b *base) index(minSlots int) error {
	size := 1
	for size < minSlots {
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

// Names numbers distinct names 1, 2, … in the order they are first
// added: a bulk load's numbering, and a Table's overlay. It is a base
// grown one name at a time: the bytes of each new name are copied into
// one arena, never to change, and found again by a probe of the hashed
// slot table, so a name costs no string and no map entry. The zero value
// is empty.
type Names struct{ b base }

// Add returns name's number, appending it as number n+1 if it is new;
// the bytes are copied, so the caller may reuse them.
func (ns *Names) Add(name []byte) (Sym, error) {
	ns.grow(1)
	return ns.add(unsafe.String(unsafe.SliceData(name), len(name)))
}

// grow rebuilds the slot table, if k more names would pass half full,
// with room for them all: a batch rebuilds it once, a name at a time
// doubles it.
func (ns *Names) grow(k int) {
	b := &ns.b
	if 2*(b.n+k) > len(b.slots) {
		if b.offs == nil {
			b.offs = []uint32{0}
		}
		_ = b.index(max(1024, 2*(b.n+k))) // the names are distinct: no error
	}
}

// add is Add of a string, once grow has made room. A name that would pass
// 4 GiB of text, where a u32 offset wraps, is an error and adds nothing.
func (ns *Names) add(name string) (Sym, error) {
	b := &ns.b
	mask := uint64(len(b.slots) - 1)
	for i := maphash.String(b.seed, name) & mask; ; i = (i + 1) & mask {
		id := b.slots[i]
		if id == 0 {
			if uint64(len(b.blob))+uint64(len(name)) > math.MaxUint32 {
				return None, fmt.Errorf("symtab: names exceed 4 GiB")
			}
			b.blob = append(b.blob, name...)
			b.offs = append(b.offs, uint32(len(b.blob)))
			b.n++
			b.slots[i] = int32(b.n)
			return Sym(b.n), nil
		}
		if b.text(int(id)) == name {
			return Sym(id), nil
		}
	}
}

// Strings returns the names in number order, the name numbered i at
// index i-1. The strings alias the arena, which no later Add changes.
func (ns *Names) Strings() []string {
	out := make([]string, ns.b.n)
	for i := range out {
		out[i] = ns.b.text(i + 1)
	}
	return out
}

// ascending reports whether the names ascend with their ids, bytewise:
// one pass over adjacent names. A snapshot numbers its base in name
// order; a file written before it did, or a hand-built base, may not.
func (b *base) ascending() bool {
	for i := 2; i <= b.n; i++ {
		if b.text(i-1) >= b.text(i) {
			return false
		}
	}
	return true
}

// NewTableFromBase returns a table whose Syms 1..len(offs)-1 resolve
// through the given frozen name block: blob holds the concatenated name
// bytes and offs delimits them (offs[i-1]:offs[i] is the name of Sym(i)).
// Both slices are aliased, not copied — they may point into a read-only
// file mapping, and must stay valid and unmodified for the table's
// lifetime. New names intern into the table's overlay, a heap Names
// arena numbered on from the base ids, so the table stays dense.
//
// The structural invariants (monotone offsets in range, every name
// distinct) are validated; the name index is built here, and whether the
// ids ascend in name order is recorded, so this costs time and memory in
// proportion to the symbol count.
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
	b := base{n: n, blob: blob, offs: offs}
	if err := b.index(2 * n); err != nil {
		return nil, err
	}
	t := &Table{
		base:    b,
		baseLen: n + 1, // ids [0, n]: the sentinel plus the base names
		ordered: b.ascending(),
	}
	t.size.Store(int64(t.baseLen))
	return t, nil
}

// BaseLen returns the number of Syms resolved by the table's frozen base
// (including the sentinel), or 0 for a table built empty. Syms below
// BaseLen came from the snapshot; Syms at or above it were interned live.
func (t *Table) BaseLen() int { return t.baseLen }
