package symtab

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
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
	_, id := b.probe(name, nil)
	return Sym(id), id != 0
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
	for id := 1; id <= b.n; id++ {
		name := b.text(id)
		j, prev := b.probe(name, nil)
		if prev != 0 {
			return fmt.Errorf("symtab: base name %q repeated (ids %d and %d)", name, prev, id)
		}
		b.slots[j] = int32(id)
	}
	return nil
}

// probe returns the slot that holds name, and its id, or the first empty
// slot on name's probe path and 0. A slot a batch being added has marked
// holds the negated index of its name in batch, plus one.
func (b *base) probe(name string, batch []string) (uint64, int32) {
	mask := uint64(len(b.slots) - 1)
	for j := maphash.String(b.seed, name) & mask; ; j = (j + 1) & mask {
		id := b.slots[j]
		if id == 0 || id > 0 && b.text(int(id)) == name || id < 0 && batch[-id-1] == name {
			return j, id
		}
	}
}

// push appends name to the text as the next id and returns the id.
func (b *base) push(name string) int32 {
	b.blob = append(b.blob, name...)
	b.offs = append(b.offs, uint32(len(b.blob)))
	b.n++
	return int32(b.n)
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

var errTooLong = errors.New("symtab: names exceed 4 GiB")

// add is Add of a string, once grow has made room. A name that would pass
// 4 GiB of text, where a u32 offset wraps, is an error and adds nothing.
// It is addAll of one name without the batch's two passes, which cost a
// name at a time a fifth more.
func (ns *Names) add(name string) (Sym, error) {
	b := &ns.b
	j, id := b.probe(name, nil)
	if id != 0 {
		return Sym(id), nil
	}
	if uint64(len(b.blob))+uint64(len(name)) > math.MaxUint32 {
		return None, errTooLong
	}
	b.slots[j] = b.push(name)
	return Sym(b.n), nil
}

// addAll gives the number of each name whose syms entry is None, plus
// lo, into that entry, appending the names the arena lacks in the order
// they first come. Other entries are left as they are. The slot table
// is the batch's dedupe set: a first pass marks the slot of a name new to
// the arena with its batch index, negated, so the arena is reserved for
// exactly the new names' text and offsets and a second pass writes them
// once. Past 4 GiB of text it unmarks those slots and returns an error,
// having reserved and written nothing.
func (ns *Names) addAll(names []string, syms []Sym, lo int) error {
	b := &ns.b
	var k int
	for _, s := range syms {
		if s == None {
			k++
		}
	}
	if k == 0 {
		return nil
	}
	ns.grow(k)
	var fresh, bytes int
	for i, name := range names {
		if syms[i] != None {
			continue
		}
		j, id := b.probe(name, names)
		if id > 0 {
			syms[i] = Sym(lo + int(id))
			continue
		}
		if id == 0 {
			b.slots[j] = -int32(i) - 1
			fresh++
			bytes += len(name)
		}
		syms[i] = -Sym(j) - 1 // a slot this batch marked
	}
	if fresh == 0 {
		return nil
	}
	if uint64(len(b.blob))+uint64(bytes) > math.MaxUint32 {
		for _, s := range syms {
			if s < 0 {
				b.slots[-s-1] = 0
			}
		}
		return errTooLong
	}
	b.blob = slices.Grow(b.blob, bytes)
	b.offs = slices.Grow(b.offs, fresh)
	for i, s := range syms {
		if s >= 0 {
			continue
		}
		slot := &b.slots[-s-1]
		if *slot < 0 { // the name's first place in the batch
			*slot = b.push(names[i])
		}
		syms[i] = Sym(lo + int(*slot))
	}
	return nil
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
