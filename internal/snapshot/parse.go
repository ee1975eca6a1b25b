package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"unsafe"

	"chainlog/internal/symtab"
)

// ErrNotSnapshot reports that the input does not begin with the snapshot
// magic — callers use it to fall back to the text fact format.
var ErrNotSnapshot = errors.New("snapshot: magic mismatch (not a binary snapshot)")

// Rel is one parsed relation, its sections decoded (aliased on a
// little-endian host) and structurally validated.
type Rel struct {
	Name  string
	Arity int
	Count int
	// Binary relations: CSR offsets sized SymCount+2 and sorted neighbor
	// lists, forward and inverse.
	FwdOff []int32
	FwdNbr []symtab.Sym
	RevOff []int32
	RevNbr []symtab.Sym
	// Non-binary relations: Count×Arity flat tuples.
	Flat []symtab.Sym
}

// Snapshot is a parsed, checksum-verified binary snapshot. Slice fields
// alias the input buffer on little-endian hosts; the buffer must outlive
// any use of them (including a Store built via Build).
type Snapshot struct {
	Epoch    uint64
	SymCount int
	Blob     []byte
	Offs     []uint32
	Sorted   []int32
	Rels     []Rel
}

// SymName returns the text of snapshot symbol i, aliasing the input
// buffer as Blob does. A symbol table copies what it interns, so the
// restore path interns it as it is and the table does not pin the buffer.
func (s *Snapshot) SymName(i symtab.Sym) string {
	if i < 1 || int(i) > s.SymCount {
		return ""
	}
	name := s.Blob[s.Offs[i-1]:s.Offs[i]]
	return unsafe.String(unsafe.SliceData(name), len(name))
}

// IsSnapshot reports whether b begins with the binary snapshot magic.
func IsSnapshot(b []byte) bool {
	return len(b) >= len(Magic) && string(b[:len(Magic)]) == Magic
}

// rawSec is one directory-described section before typed decoding.
type rawSec struct {
	data  []byte
	count int
}

// Parse decodes and fully verifies a binary snapshot image: magic,
// version, header/directory checksum, then every section's CRC32C,
// bounds, alignment and structural invariants (monotone CSR offsets
// ending at the edge count, symbol values in range). Corruption anywhere
// — truncation, bit flips, a bad length — returns an error; no partially
// verified data is ever exposed. On little-endian hosts the returned
// snapshot aliases data with zero copying, so data must be 8-byte
// aligned and outlive the result.
func Parse(data []byte) (*Snapshot, error) {
	if !IsSnapshot(data) {
		return nil, ErrNotSnapshot
	}
	if len(data) < headerLen {
		return nil, fmt.Errorf("snapshot: truncated header (%d bytes)", len(data))
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != Version {
		return nil, fmt.Errorf("snapshot: format version %d not supported (reader handles version %d)", v, Version)
	}
	if f := binary.LittleEndian.Uint32(data[12:]); f != 0 {
		return nil, fmt.Errorf("snapshot: unknown flags %#x", f)
	}
	epoch := binary.LittleEndian.Uint64(data[16:])
	symCount := binary.LittleEndian.Uint64(data[24:])
	relCount := binary.LittleEndian.Uint32(data[32:])
	secCount := binary.LittleEndian.Uint32(data[36:])
	dirOff := binary.LittleEndian.Uint64(data[40:])
	fileSize := binary.LittleEndian.Uint64(data[48:])
	if fileSize != uint64(len(data)) {
		return nil, fmt.Errorf("snapshot: file is %d bytes, header says %d (truncated or padded)", len(data), fileSize)
	}
	if symCount > uint64(1)<<31-2 {
		return nil, fmt.Errorf("snapshot: implausible symbol count %d", symCount)
	}
	if dirOff != headerLen {
		return nil, fmt.Errorf("snapshot: directory at %d, want %d", dirOff, headerLen)
	}
	dirLen := uint64(secCount)*dirEntLen + 4
	if dirOff+dirLen > uint64(len(data)) {
		return nil, fmt.Errorf("snapshot: directory (%d sections) exceeds file", secCount)
	}
	dir := data[dirOff : dirOff+dirLen]
	wantMeta := binary.LittleEndian.Uint32(dir[len(dir)-4:])
	meta := crc32.Checksum(data[:headerLen], castagnoli)
	meta = crc32.Update(meta, castagnoli, dir[:len(dir)-4])
	if meta != wantMeta {
		return nil, fmt.Errorf("snapshot: header/directory checksum mismatch (got %#x, want %#x)", meta, wantMeta)
	}

	k := int(symCount)
	snap := &Snapshot{Epoch: epoch, SymCount: k, Rels: make([]Rel, relCount)}
	// Relation sections are keyed by kind per relation; global sections
	// are tracked directly.
	bySec := make([]map[uint32]rawSec, relCount)
	spans := [][2]uint64{{0, dirOff + dirLen}}
	var blobSec, offsSec, sortedSec, relTabSec *rawSec
	for i := 0; i < int(secCount); i++ {
		e := dir[i*dirEntLen:]
		kind := binary.LittleEndian.Uint32(e[0:])
		rel := binary.LittleEndian.Uint32(e[4:])
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		wantCRC := binary.LittleEndian.Uint32(e[24:])
		count := binary.LittleEndian.Uint32(e[28:])
		if off%8 != 0 {
			return nil, fmt.Errorf("snapshot: section %d misaligned at offset %d", i, off)
		}
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("snapshot: section %d (%d+%d bytes) exceeds file", i, off, length)
		}
		payload := data[off : off+length]
		if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
			return nil, fmt.Errorf("snapshot: section %d (kind %d) checksum mismatch (got %#x, want %#x)", i, kind, got, wantCRC)
		}
		spans = append(spans, [2]uint64{off, off + length})
		sec := rawSec{data: payload, count: int(count)}
		switch kind {
		case secSymBlob, secSymOffs, secSymSorted, secRelTable:
			if rel != noRel {
				return nil, fmt.Errorf("snapshot: global section %d bound to relation %d", kind, rel)
			}
			switch kind {
			case secSymBlob:
				blobSec = &sec
			case secSymOffs:
				offsSec = &sec
			case secSymSorted:
				sortedSec = &sec
			case secRelTable:
				relTabSec = &sec
			}
		case secFwdOff, secFwdNbr, secRevOff, secRevNbr, secFlat:
			if rel >= relCount {
				return nil, fmt.Errorf("snapshot: section kind %d names relation %d of %d", kind, rel, relCount)
			}
			if bySec[rel] == nil {
				bySec[rel] = make(map[uint32]rawSec, 4)
			}
			if _, dup := bySec[rel][kind]; dup {
				return nil, fmt.Errorf("snapshot: duplicate section kind %d for relation %d", kind, rel)
			}
			bySec[rel][kind] = sec
		default:
			return nil, fmt.Errorf("snapshot: unknown section kind %d", kind)
		}
	}

	// Every byte must belong to the header/directory or a section, except
	// zero padding between them — so no CRC-blind region exists anywhere
	// in the file, and sections cannot overlap (which would let one
	// checksummed region silently shadow another).
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
	cursor := uint64(0)
	for _, sp := range spans {
		if sp[0] < cursor {
			return nil, fmt.Errorf("snapshot: overlapping sections at offset %d", sp[0])
		}
		for _, b := range data[cursor:sp[0]] {
			if b != 0 {
				return nil, fmt.Errorf("snapshot: nonzero padding before offset %d", sp[0])
			}
		}
		cursor = sp[1]
	}
	for _, b := range data[cursor:] {
		if b != 0 {
			return nil, errors.New("snapshot: nonzero trailing padding")
		}
	}

	// Symbol table sections.
	if blobSec == nil || offsSec == nil || sortedSec == nil || relTabSec == nil {
		return nil, errors.New("snapshot: missing symbol-table or relation-table section")
	}
	if offsSec.count != k+1 || len(offsSec.data) != 4*(k+1) {
		return nil, fmt.Errorf("snapshot: symbol offsets hold %d entries, want %d", offsSec.count, k+1)
	}
	if sortedSec.count != k || len(sortedSec.data) != 4*k {
		return nil, fmt.Errorf("snapshot: symbol sort index holds %d entries, want %d", sortedSec.count, k)
	}
	snap.Blob = blobSec.data
	snap.Offs = leWords[uint32](offsSec.data, k+1)
	snap.Sorted = leWords[int32](sortedSec.data, k)

	// Relation table.
	rt := relTabSec.data
	if relTabSec.count != int(relCount) {
		return nil, fmt.Errorf("snapshot: relation table lists %d relations, header says %d", relTabSec.count, relCount)
	}
	for ri := range snap.Rels {
		if len(rt) < 4 {
			return nil, errors.New("snapshot: relation table truncated")
		}
		nameLen := int(binary.LittleEndian.Uint32(rt))
		rt = rt[4:]
		if nameLen < 0 || len(rt) < nameLen+12 {
			return nil, errors.New("snapshot: relation table truncated")
		}
		name := string(rt[:nameLen])
		rt = rt[nameLen:]
		arity := int(binary.LittleEndian.Uint32(rt))
		count := binary.LittleEndian.Uint64(rt[4:])
		rt = rt[12:]
		if arity < 0 || arity > 1<<16 || count > uint64(1)<<40 {
			return nil, fmt.Errorf("snapshot: relation %s has implausible arity %d / count %d", name, arity, count)
		}
		snap.Rels[ri] = Rel{Name: name, Arity: arity, Count: int(count)}
	}

	// Per-relation sections.
	for ri := range snap.Rels {
		r := &snap.Rels[ri]
		secs := bySec[ri]
		if r.Arity == 2 {
			var err error
			if r.FwdOff, r.FwdNbr, err = csrPair(secs, secFwdOff, secFwdNbr, k, r.Count); err != nil {
				return nil, fmt.Errorf("snapshot: relation %s forward: %w", r.Name, err)
			}
			if r.RevOff, r.RevNbr, err = csrPair(secs, secRevOff, secRevNbr, k, r.Count); err != nil {
				return nil, fmt.Errorf("snapshot: relation %s inverse: %w", r.Name, err)
			}
			if len(secs) != 4 {
				return nil, fmt.Errorf("snapshot: relation %s has %d sections, want 4", r.Name, len(secs))
			}
			continue
		}
		fs, ok := secs[secFlat]
		if !ok || len(secs) != 1 {
			return nil, fmt.Errorf("snapshot: relation %s (arity %d) needs exactly one flat section", r.Name, r.Arity)
		}
		want := r.Count * r.Arity
		if fs.count != want || len(fs.data) != 4*want {
			return nil, fmt.Errorf("snapshot: relation %s flat section holds %d values, want %d", r.Name, fs.count, want)
		}
		r.Flat = leWords[symtab.Sym](fs.data, want)
		for _, s := range r.Flat {
			if s < 1 || int(s) > k {
				return nil, fmt.Errorf("snapshot: relation %s holds out-of-range symbol %d", r.Name, s)
			}
		}
	}
	return snap, nil
}

// csrPair decodes and validates one CSR half: offsets monotone over the
// dense symbol space ending at the edge count, neighbor values in range
// and strictly ascending within each key, so no edge repeats.
func csrPair(secs map[uint32]rawSec, offKind, nbrKind uint32, k, count int) ([]int32, []symtab.Sym, error) {
	os, ok := secs[offKind]
	if !ok {
		return nil, nil, errors.New("missing offset section")
	}
	ns, ok := secs[nbrKind]
	if !ok {
		return nil, nil, errors.New("missing neighbor section")
	}
	if os.count != k+2 || len(os.data) != 4*(k+2) {
		return nil, nil, fmt.Errorf("offset section holds %d entries, want %d", os.count, k+2)
	}
	if ns.count != count || len(ns.data) != 4*count {
		return nil, nil, fmt.Errorf("neighbor section holds %d entries, want %d", ns.count, count)
	}
	off := leWords[int32](os.data, k+2)
	nbr := leWords[symtab.Sym](ns.data, count)
	if off[0] != 0 || int(off[k+1]) != count {
		return nil, nil, fmt.Errorf("offsets span [%d, %d], want [0, %d]", off[0], off[k+1], count)
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return nil, nil, fmt.Errorf("offsets not monotone at key %d", i)
		}
	}
	for u := 0; u <= k; u++ {
		b := nbr[off[u]:off[u+1]]
		for i, v := range b {
			if v < 1 || int(v) > k {
				return nil, nil, fmt.Errorf("key %d has out-of-range neighbor %d", u, v)
			}
			if i > 0 && b[i-1] >= v {
				return nil, nil, fmt.Errorf("key %d neighbor list not strictly ascending", u)
			}
		}
	}
	return off, nbr, nil
}
