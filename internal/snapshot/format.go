// Package snapshot implements the versioned binary snapshot format for
// the extensional database: a columnar, mmap-able image of every
// relation's already-flat CSR layout plus a frozen symbol table, so a
// cold process maps the file and serves chain queries without parsing,
// interning or building a relation index.
//
// # Layout (version 1, all fixed-width fields little-endian)
//
//	offset 0   magic "CLOGSNP1" (8 bytes)
//	offset 8   header (56 bytes):
//	             u32 version, u32 flags (0)
//	             u64 fact epoch
//	             u64 symbol count K
//	             u32 relation count, u32 section count
//	             u64 directory offset (64), u64 file size, u64 reserved
//	offset 64  section directory: one 32-byte entry per section
//	             (u32 kind, u32 relation index or ~0, u64 offset,
//	              u64 length, u32 CRC32C, u32 element count),
//	           followed by u32 CRC32C over magic+header+entries
//	...        sections, each 8-byte aligned
//
// Sections: the symbol table is three sections — the concatenated name
// blob, K+1 u32 offsets delimiting it (the name of Sym i is
// blob[offs[i-1]:offs[i]]), and K i32 ids sorted by name (the identity
// 1..K in files written since ids are assigned in name order). The
// reader checks only the sort index's length: it finds names through a
// hash index built at open, so an older file whose index is a real
// permutation loads the same.
// The relation table section lists (name, arity, live count) per
// relation. Every binary relation stores four i32 sections: forward CSR
// offsets (K+2 entries, indexed by source Sym) and neighbors, then the
// inverse pair indexed by target. Neighbor lists are sorted ascending
// within each key, so membership probes are binary searches and answers
// are deterministic. Non-binary relations store one flat section of
// count×arity i32 tuples.
//
// Symbols are remapped at write time to the dense range 1..K over
// exactly the constants occurring in facts — retired constants do not
// leak into the file — which is what lets the
// reader alias the symbol sections as a frozen symtab base without
// copying a name. Ids are assigned in name order (bytewise), so in a table
// opened or restored from the file ascending Sym is ascending name: the
// Sym-sorted answer stream every strategy produces is already in the
// name order Answer.Rows promises, and the final sort finds nothing to
// move. A file from before that assignment answers the same, it just
// pays for the sort.
//
// Every section carries a CRC32C checked before any data is served, and
// the header/directory pair carries its own, so truncation or bit rot
// anywhere in the file fails Parse cleanly instead of serving torn data.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strings"
	"unsafe"

	"chainlog/internal/edb"
	"chainlog/internal/symtab"
)

// Magic identifies a chainlog binary snapshot; the trailing 1 is the
// on-disk format generation and moves only on incompatible changes (the
// header version covers compatible revisions).
const Magic = "CLOGSNP1"

// Version is the current header version this package writes and reads.
const Version = 1

const (
	headerLen = 64 // magic + fixed header fields
	dirEntLen = 32
	noRel     = ^uint32(0)
)

// Section kinds.
const (
	secSymBlob   = 1
	secSymOffs   = 2
	secSymSorted = 3
	secRelTable  = 4
	secFwdOff    = 5
	secFwdNbr    = 6
	secRevOff    = 7
	secRevNbr    = 8
	secFlat      = 9
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLE reports whether the running machine is little-endian; when true
// the fixed-width sections can be aliased as typed slices with no
// decode pass.
var hostLE = binary.NativeEndian.Uint16([]byte{0x12, 0x34}) == 0x3412

// word is the constraint for the 4-byte fixed-width element types the
// format stores.
type word interface{ ~int32 | ~uint32 }

// leBytes returns v's little-endian byte image: an unsafe alias on an
// LE host, an encoded copy elsewhere.
func leBytes[T word](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLE {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
	}
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(x))
	}
	return b
}

// leWords decodes count little-endian 4-byte values from data: a
// zero-copy alias on an LE host (data must be 4-byte aligned, which the
// 8-aligned section layout guarantees), a converted copy elsewhere.
func leWords[T word](data []byte, count int) []T {
	if count == 0 {
		return nil
	}
	if hostLE {
		return unsafe.Slice((*T)(unsafe.Pointer(&data[0])), count)
	}
	out := make([]T, count)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint32(data[i*4:]))
	}
	return out
}

// section is one payload scheduled for writing.
type section struct {
	kind    uint32
	rel     uint32
	count   uint32
	payload []byte
}

// Write serializes the store's relations and the symbols they use as a
// binary snapshot stamped with the given fact epoch. The caller must
// hold the store quiescent (the DB read lock) for the duration.
func Write(w io.Writer, st *symtab.Table, store *edb.Store, epoch uint64) error {
	relNames := store.Relations()
	bound := st.Len()

	// Pass 1: mark the constants occurring in facts.
	used := make([]bool, bound)
	k := 0 // symbols marked
	var markErr error
	for _, name := range relNames {
		store.Relation(name).Each(func(tu []symtab.Sym) {
			if markErr != nil {
				return
			}
			for _, s := range tu {
				if s <= symtab.None || int(s) >= bound {
					markErr = fmt.Errorf("snapshot: fact in %s holds out-of-range symbol %d", name, s)
					return
				}
				if !used[s] {
					used[s] = true
					k++
				}
			}
		})
	}
	if markErr != nil {
		return markErr
	}

	// Pass 2: remap used symbols to the dense ids 1..K in name order and
	// build the three symbol sections. The name-sorted index comes out as
	// the identity; it is still written because version 1 has the
	// section.
	type usedSym struct {
		name string
		sym  symtab.Sym
	}
	syms := make([]usedSym, 0, k)
	for s := 1; s < bound; s++ {
		if used[s] {
			syms = append(syms, usedSym{st.Name(symtab.Sym(s)), symtab.Sym(s)})
		}
	}
	slices.SortFunc(syms, func(a, b usedSym) int { return strings.Compare(a.name, b.name) })
	remap := make([]symtab.Sym, bound)
	var blob []byte
	offs := make([]uint32, 1, k+1)
	sorted := make([]int32, k)
	for i, u := range syms {
		remap[u.sym] = symtab.Sym(i + 1)
		blob = append(blob, u.name...)
		offs = append(offs, uint32(len(blob)))
		sorted[i] = int32(i + 1)
	}

	sections := []section{
		{kind: secSymBlob, rel: noRel, count: uint32(len(blob)), payload: blob},
		{kind: secSymOffs, rel: noRel, count: uint32(len(offs)), payload: leBytes(offs)},
		{kind: secSymSorted, rel: noRel, count: uint32(k), payload: leBytes(sorted)},
	}

	// Relation table: (name length, name, arity, live count) per
	// relation, in store insertion order.
	var relTab []byte
	var num [8]byte
	for _, name := range relNames {
		r := store.Relation(name)
		binary.LittleEndian.PutUint32(num[:4], uint32(len(name)))
		relTab = append(relTab, num[:4]...)
		relTab = append(relTab, name...)
		binary.LittleEndian.PutUint32(num[:4], uint32(r.Arity()))
		relTab = append(relTab, num[:4]...)
		binary.LittleEndian.PutUint64(num[:], uint64(r.Len()))
		relTab = append(relTab, num[:]...)
	}
	sections = append(sections, section{kind: secRelTable, rel: noRel, count: uint32(len(relNames)), payload: relTab})

	// Pass 3: per-relation payloads, symbols rewritten through the remap.
	for ri, name := range relNames {
		r := store.Relation(name)
		if r.Arity() == 2 {
			pairs := make([]symtab.Sym, 0, 2*r.Len())
			r.Each(func(tu []symtab.Sym) {
				pairs = append(pairs, remap[tu[0]], remap[tu[1]])
			})
			fwdOff, fwdNbr, revOff, revNbr := edb.CSR(pairs, k+1)
			sections = append(sections,
				section{kind: secFwdOff, rel: uint32(ri), count: uint32(len(fwdOff)), payload: leBytes(fwdOff)},
				section{kind: secFwdNbr, rel: uint32(ri), count: uint32(len(fwdNbr)), payload: leBytes(fwdNbr)},
				section{kind: secRevOff, rel: uint32(ri), count: uint32(len(revOff)), payload: leBytes(revOff)},
				section{kind: secRevNbr, rel: uint32(ri), count: uint32(len(revNbr)), payload: leBytes(revNbr)},
			)
			continue
		}
		flat := make([]symtab.Sym, 0, r.Len()*r.Arity())
		r.Each(func(tu []symtab.Sym) {
			for _, s := range tu {
				flat = append(flat, remap[s])
			}
		})
		sections = append(sections, section{kind: secFlat, rel: uint32(ri), count: uint32(len(flat)), payload: leBytes(flat)})
	}

	// Layout: header, directory, then the 8-aligned sections.
	dirLen := len(sections)*dirEntLen + 4
	off := uint64(align8(headerLen + dirLen))
	offsets := make([]uint64, len(sections))
	for i, s := range sections {
		offsets[i] = off
		off += uint64(align8(len(s.payload)))
	}
	fileSize := off

	head := make([]byte, headerLen)
	copy(head, Magic)
	binary.LittleEndian.PutUint32(head[8:], Version)
	binary.LittleEndian.PutUint32(head[12:], 0) // flags
	binary.LittleEndian.PutUint64(head[16:], epoch)
	binary.LittleEndian.PutUint64(head[24:], uint64(k))
	binary.LittleEndian.PutUint32(head[32:], uint32(len(relNames)))
	binary.LittleEndian.PutUint32(head[36:], uint32(len(sections)))
	binary.LittleEndian.PutUint64(head[40:], headerLen)
	binary.LittleEndian.PutUint64(head[48:], fileSize)

	dir := make([]byte, dirLen)
	for i, s := range sections {
		e := dir[i*dirEntLen:]
		binary.LittleEndian.PutUint32(e[0:], s.kind)
		binary.LittleEndian.PutUint32(e[4:], s.rel)
		binary.LittleEndian.PutUint64(e[8:], offsets[i])
		binary.LittleEndian.PutUint64(e[16:], uint64(len(s.payload)))
		binary.LittleEndian.PutUint32(e[24:], crc32.Checksum(s.payload, castagnoli))
		binary.LittleEndian.PutUint32(e[28:], s.count)
	}
	metaCRC := crc32.Checksum(head, castagnoli)
	metaCRC = crc32.Update(metaCRC, castagnoli, dir[:len(sections)*dirEntLen])
	binary.LittleEndian.PutUint32(dir[len(sections)*dirEntLen:], metaCRC)

	var pad [8]byte
	if _, err := w.Write(head); err != nil {
		return err
	}
	if _, err := w.Write(dir); err != nil {
		return err
	}
	written := headerLen + dirLen
	if p := align8(written) - written; p > 0 {
		if _, err := w.Write(pad[:p]); err != nil {
			return err
		}
	}
	for _, s := range sections {
		if _, err := w.Write(s.payload); err != nil {
			return err
		}
		if p := align8(len(s.payload)) - len(s.payload); p > 0 {
			if _, err := w.Write(pad[:p]); err != nil {
				return err
			}
		}
	}
	return nil
}

func align8(n int) int { return (n + 7) &^ 7 }

// Build constructs a zero-copy symbol table and store over the parsed
// snapshot: the symtab aliases the symbol sections as its frozen base,
// and every relation installs frozen (CSR-backed for binary relations),
// so no tuple is touched. The one per-symbol cost is the base's name
// index (a 4-byte slot per symbol or two), which also rejects a repeated
// name. The
// snapshot's backing memory must stay valid for the lifetime of the
// returned objects.
func (s *Snapshot) Build() (*symtab.Table, *edb.Store, error) {
	st, err := symtab.NewTableFromBase(s.Blob, s.Offs)
	if err != nil {
		return nil, nil, err
	}
	store := edb.NewStore(st)
	for i := range s.Rels {
		r := &s.Rels[i]
		if r.Arity == 2 {
			if _, err := store.InstallCSR(r.Name, r.FwdOff, r.FwdNbr, r.RevOff, r.RevNbr); err != nil {
				return nil, nil, err
			}
			continue
		}
		if _, err := store.InstallFlat(r.Name, r.Arity, r.Count, r.Flat); err != nil {
			return nil, nil, err
		}
	}
	return st, store, nil
}
