package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"chainlog/internal/edb"
	"chainlog/internal/symtab"
)

// testStore builds a store with a binary relation, a ternary relation, a
// unary relation and some unused interned symbols (which must not leak
// into the snapshot).
func testStore() (*symtab.Table, *edb.Store) {
	st := symtab.NewTable()
	s := edb.NewStore(st)
	st.Intern("unused_constant")
	edges := [][2]string{
		{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"}, {"a", "d"},
		{"e", "a"}, {"b", "b"},
	}
	for _, e := range edges {
		s.Insert("edge", st.Intern(e[0]), st.Intern(e[1]))
	}
	s.Insert("triple", st.Intern("x"), st.Intern("y"), st.Intern("z"))
	s.Insert("triple", st.Intern("z"), st.Intern("y"), st.Intern("x"))
	s.Insert("flag", st.Intern("on"))
	st.Intern("another_unused")
	return st, s
}

func writeSnap(t *testing.T, st *symtab.Table, s *edb.Store, epoch uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, st, s, epoch); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// alignedCopy returns an 8-byte-aligned copy of b, as Parse's zero-copy
// decoding requires.
func alignedCopy(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	w := make([]uint64, (len(b)+7)/8)
	out := unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), len(b))
	copy(out, b)
	return out
}

// TestSymbolsWrittenInNameOrder pins the id assignment: whatever order
// the source table interned them in, the file's symbols ascend by name
// (bytewise), so its name-sorted index is the identity.
func TestSymbolsWrittenInNameOrder(t *testing.T) {
	st := symtab.NewTable()
	s := edb.NewStore(st)
	for _, e := range [][2]string{{"t2", "t10"}, {"t10", "t1"}, {"Z", "t100"}, {"é", "t10a"}, {"t1", "B"}, {"~", "a"}} {
		s.Insert("edge", st.Intern(e[0]), st.Intern(e[1]))
	}
	snap, err := Parse(alignedCopy(writeSnap(t, st, s, 1)))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := []string{"B", "Z", "a", "t1", "t10", "t100", "t10a", "t2", "~", "é"}
	if snap.SymCount != len(want) {
		t.Fatalf("SymCount = %d, want %d", snap.SymCount, len(want))
	}
	for i, name := range want {
		if got := snap.SymName(symtab.Sym(i + 1)); got != name {
			t.Errorf("Sym %d is %q, want %q", i+1, got, name)
		}
		if snap.Sorted[i] != int32(i+1) {
			t.Errorf("Sorted[%d] = %d, want the identity", i, snap.Sorted[i])
		}
	}
}

func TestRoundTrip(t *testing.T) {
	st, s := testStore()
	img := writeSnap(t, st, s, 42)
	snap, err := Parse(img)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if snap.Epoch != 42 {
		t.Errorf("epoch = %d, want 42", snap.Epoch)
	}
	// Only the constants used in facts appear: 5 edge nodes + x,y,z +
	// on = 9; the two unused interns must be gone.
	if snap.SymCount != 9 {
		t.Errorf("SymCount = %d, want 9", snap.SymCount)
	}
	st2, s2, err := snap.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Every original fact present, no extras, via name-level comparison.
	for _, rel := range []string{"edge", "triple", "flag"} {
		want := map[string]bool{}
		s.Relation(rel).Each(func(tu []symtab.Sym) {
			names := make([]string, len(tu))
			for i, x := range tu {
				names[i] = st.Name(x)
			}
			want[strings.Join(names, ",")] = true
		})
		got := map[string]bool{}
		s2.Relation(rel).Each(func(tu []symtab.Sym) {
			names := make([]string, len(tu))
			for i, x := range tu {
				names[i] = st2.Name(x)
			}
			got[strings.Join(names, ",")] = true
		})
		if len(got) != len(want) {
			t.Errorf("%s: %d tuples, want %d", rel, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Errorf("%s: missing tuple %s", rel, k)
			}
		}
	}
	// Adjacency probes work frozen and agree with the source.
	a2 := st2.Intern("a")
	succ := []string{}
	for _, v := range s2.Relation("edge").Successors(a2) {
		succ = append(succ, st2.Name(v))
	}
	slices.Sort(succ)
	if !slices.Equal(succ, []string{"b", "d"}) {
		t.Errorf("Successors(a) = %v", succ)
	}
	if _, ok := st2.Lookup("unused_constant"); ok {
		t.Error("unused constant leaked into the snapshot")
	}
}

func TestWriterDeterministic(t *testing.T) {
	st, s := testStore()
	if !bytes.Equal(writeSnap(t, st, s, 7), writeSnap(t, st, s, 7)) {
		t.Error("two writes of the same store differ")
	}
}

func TestRejectsTupleTerms(t *testing.T) {
	st := symtab.NewTable()
	s := edb.NewStore(st)
	tup := st.InternTuple([]symtab.Sym{st.Intern("a"), st.Intern("b")})
	s.Insert("weird", tup, st.Intern("c"))
	if err := Write(&bytes.Buffer{}, st, s, 1); err == nil {
		t.Fatal("Write accepted a tuple term")
	}
}

func TestVersionAndMagicRejection(t *testing.T) {
	st, s := testStore()
	img := writeSnap(t, st, s, 1)

	bad := alignedCopy(img)
	bad[0] = 'X'
	if _, err := Parse(bad); err != ErrNotSnapshot {
		t.Errorf("magic corruption: err = %v, want ErrNotSnapshot", err)
	}

	bad = alignedCopy(img)
	binary.LittleEndian.PutUint32(bad[8:], Version+1)
	if _, err := Parse(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version accepted: err = %v", err)
	}
}

func TestTruncationRejected(t *testing.T) {
	st, s := testStore()
	img := writeSnap(t, st, s, 1)
	for _, n := range []int{0, 4, len(Magic), headerLen - 1, headerLen + 3, len(img) / 2, len(img) - 1} {
		if _, err := Parse(alignedCopy(img[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

func TestBitFlipsRejected(t *testing.T) {
	st, s := testStore()
	img := writeSnap(t, st, s, 1)
	rng := rand.New(rand.NewSource(1))
	flips := []int{}
	for i := 0; i < 64; i++ {
		flips = append(flips, rng.Intn(len(img)))
	}
	// Deterministic coverage of the structurally interesting offsets too.
	flips = append(flips, 8, 12, 16, 24, 32, 36, 40, 48, 64, 68, 72, 80, 88, 92, len(img)-1)
	for _, pos := range flips {
		bad := alignedCopy(img)
		bad[pos] ^= 0x40
		if _, err := Parse(bad); err == nil {
			t.Errorf("bit flip at offset %d accepted", pos)
		}
	}
}

// TestRepeatedNameRejectedAtBuild edits a name in the blob into a copy of
// another and reseals every checksum: Parse cannot tell, but the table
// over the file would resolve both ids to one name and find only one of
// them by name, so Build refuses it.
func TestRepeatedNameRejectedAtBuild(t *testing.T) {
	st := symtab.NewTable()
	s := edb.NewStore(st)
	s.Insert("edge", st.Intern("aa"), st.Intern("ab"))
	img := alignedCopy(writeSnap(t, st, s, 1))
	secs := int(binary.LittleEndian.Uint32(img[36:]))
	for i := range secs {
		e := img[headerLen+i*dirEntLen:]
		if binary.LittleEndian.Uint32(e) != secSymBlob {
			continue
		}
		blob := img[binary.LittleEndian.Uint64(e[8:]):][:binary.LittleEndian.Uint64(e[16:])]
		if string(blob) != "aaab" {
			t.Fatalf("blob = %q", blob)
		}
		blob[3] = 'a'
		binary.LittleEndian.PutUint32(e[24:], crc32.Checksum(blob, castagnoli))
	}
	dir := img[headerLen : headerLen+secs*dirEntLen]
	meta := crc32.Update(crc32.Checksum(img[:headerLen], castagnoli), castagnoli, dir)
	binary.LittleEndian.PutUint32(img[headerLen+len(dir):], meta)

	snap, err := Parse(img)
	if err != nil {
		t.Fatalf("Parse of the resealed image: %v", err)
	}
	if _, _, err := snap.Build(); err == nil || !strings.Contains(err.Error(), `"aa" repeated`) {
		t.Fatalf("Build = %v, want a repeated-name error", err)
	}
}

func TestOpenFile(t *testing.T) {
	st, s := testStore()
	img := writeSnap(t, st, s, 99)
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if f.Epoch != 99 {
		t.Errorf("epoch = %d", f.Epoch)
	}
	st2, s2, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Relation("edge").Len(); got != s.Relation("edge").Len() {
		t.Errorf("edge Len = %d", got)
	}
	_ = st2
	if err := f.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Error("Open of missing file succeeded")
	}
}
