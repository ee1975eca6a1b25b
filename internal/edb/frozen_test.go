package edb

import (
	"slices"
	"testing"

	"chainlog/internal/symtab"
)

// buildFrozen constructs a frozen edge relation over a fresh store from
// an edge list given as name pairs.
func buildFrozen(t *testing.T, edges [][2]string) (*Store, *symtab.Table) {
	t.Helper()
	st := symtab.NewTable()
	s := NewStore(st)
	var pairs []symtab.Sym
	for _, e := range edges {
		pairs = append(pairs, st.Intern(e[0]), st.Intern(e[1]))
	}
	if _, err := s.BuildBinary("edge", pairs); err != nil {
		t.Fatalf("BuildBinary: %v", err)
	}
	return s, st
}

// insertEqual builds the same relation through per-tuple Insert for
// comparison.
func insertEqual(st *symtab.Table, edges [][2]string) *Store {
	s := NewStore(st)
	for _, e := range edges {
		s.Insert("edge", st.Intern(e[0]), st.Intern(e[1]))
	}
	return s
}

var frozenEdges = [][2]string{
	{"a", "b"}, {"a", "c"}, {"b", "c"}, {"c", "d"},
	{"d", "a"}, {"a", "b"}, // duplicate, must dedup
	{"e", "e"}, // self loop
}

func TestFrozenMatchesInserted(t *testing.T) {
	s, st := buildFrozen(t, frozenEdges)
	ref := insertEqual(st, frozenEdges)
	fr, rr := s.Relation("edge"), ref.Relation("edge")
	if fr.Len() != rr.Len() {
		t.Fatalf("frozen Len %d, inserted Len %d", fr.Len(), rr.Len())
	}
	for _, nm := range []string{"a", "b", "c", "d", "e", "zzz"} {
		u := st.Intern(nm)
		got := append([]symtab.Sym(nil), fr.Successors(u)...)
		want := append([]symtab.Sym(nil), rr.Successors(u)...)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("Successors(%s): frozen %v, inserted %v", nm, got, want)
		}
		got = append([]symtab.Sym(nil), fr.Predecessors(u)...)
		want = append([]symtab.Sym(nil), rr.Predecessors(u)...)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("Predecessors(%s): frozen %v, inserted %v", nm, got, want)
		}
	}
	// Contains without thawing (binary search on the CSR).
	if !fr.Contains([]symtab.Sym{st.Intern("a"), st.Intern("c")}) {
		t.Error("Contains(a,c) = false")
	}
	if fr.Contains([]symtab.Sym{st.Intern("c"), st.Intern("a")}) {
		t.Error("Contains(c,a) = true")
	}
	if fr.thawed.Load() {
		t.Error("read-only probes thawed the relation")
	}
	// Each must visit every edge exactly once.
	seen := map[[2]symtab.Sym]int{}
	fr.Each(func(tu []symtab.Sym) { seen[[2]symtab.Sym{tu[0], tu[1]}]++ })
	if len(seen) != fr.Len() {
		t.Errorf("Each visited %d distinct edges, want %d", len(seen), fr.Len())
	}
	for e, n := range seen {
		if n != 1 {
			t.Errorf("Each visited %v %d times", e, n)
		}
	}
	if !slices.Equal(fr.Domain(0), rr.Domain(0)) || !slices.Equal(fr.Domain(1), rr.Domain(1)) {
		t.Error("Domain mismatch between frozen and inserted")
	}
}

func TestFrozenThawOnMutation(t *testing.T) {
	s, st := buildFrozen(t, frozenEdges)
	r := s.Relation("edge")
	a, b, f := st.Intern("a"), st.Intern("b"), st.Intern("f")
	// Duplicate insert is a no-op even though it is what forces the thaw.
	if s.Insert("edge", a, b) {
		t.Error("duplicate insert reported new")
	}
	if !r.thawed.Load() {
		t.Error("mutation did not thaw")
	}
	if !s.Insert("edge", a, f) {
		t.Error("fresh insert reported duplicate")
	}
	if got := r.Successors(a); !slices.Contains(got, f) {
		t.Errorf("Successors(a) after insert = %v, missing f", got)
	}
	if !s.Remove("edge", a, b) {
		t.Error("remove of present edge failed")
	}
	if got := r.Successors(a); slices.Contains(got, b) {
		t.Errorf("Successors(a) after remove = %v, still has b", got)
	}
	if r.Len() != 6 { // 6 distinct originally, +1 insert, -1 remove
		t.Errorf("Len = %d, want 6", r.Len())
	}
	// Predecessor side must see the same mutations.
	if got := r.Predecessors(f); !slices.Equal(got, []symtab.Sym{a}) {
		t.Errorf("Predecessors(f) = %v, want [a]", got)
	}
}

func TestFrozenMatchAndTuple(t *testing.T) {
	s, st := buildFrozen(t, frozenEdges)
	r := s.Relation("edge")
	a := st.Intern("a")
	slots := matchSlots(r, 1<<0, []symtab.Sym{a})
	if len(slots) != 2 {
		t.Fatalf("Match(a,_) returned %d slots, want 2", len(slots))
	}
	for _, sl := range slots {
		if tu := r.Tuple(int(sl)); tu[0] != a {
			t.Errorf("slot %d tuple %v does not start with a", sl, tu)
		}
	}
}

func TestInstallFlatThawCopies(t *testing.T) {
	st := symtab.NewTable()
	s := NewStore(st)
	x, y, z := st.Intern("x"), st.Intern("y"), st.Intern("z")
	backing := []symtab.Sym{x, y, z, z, y, x}
	r, err := s.InstallFlat("t3", 3, 2, backing)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Contains([]symtab.Sym{z, y, x}) || r.Contains([]symtab.Sym{y, y, y}) {
		t.Error("InstallFlat Contains wrong")
	}
	if !s.Remove("t3", x, y, z) {
		t.Error("remove failed")
	}
	// The original backing slice must be untouched by the mutation.
	if !slices.Equal(backing, []symtab.Sym{x, y, z, z, y, x}) {
		t.Errorf("mutation wrote through the aliased backing: %v", backing)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
	if _, err := s.InstallFlat("t3", 3, 0, nil); err == nil {
		t.Error("duplicate install accepted")
	}
	if _, err := s.InstallFlat("bin", 2, 0, nil); err == nil {
		t.Error("binary InstallFlat accepted")
	}
}
