package symtab

import "testing"

// buildBase flattens names (assigned Syms 1..n in order) into the
// frozen-block representation NewTableFromBase consumes.
func buildBase(t *testing.T, names ...string) *Table {
	t.Helper()
	var blob []byte
	offs := make([]uint32, 1, len(names)+1)
	for _, n := range names {
		blob = append(blob, n...)
		offs = append(offs, uint32(len(blob)))
	}
	sorted := make([]int32, len(names))
	for i := range sorted {
		sorted[i] = int32(i + 1)
	}
	// Sort ids by name (insertion sort; test-sized inputs).
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && names[sorted[j]-1] < names[sorted[j-1]-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	tab, err := NewTableFromBase(blob, offs, sorted)
	if err != nil {
		t.Fatalf("NewTableFromBase: %v", err)
	}
	return tab
}

func TestBaseTableResolvesAndInterns(t *testing.T) {
	tab := buildBase(t, "zeta", "alpha", "mid")
	if got := tab.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4 (sentinel + 3 base names)", got)
	}
	for i, want := range []string{"zeta", "alpha", "mid"} {
		if got := tab.Name(Sym(i + 1)); got != want {
			t.Errorf("Name(%d) = %q, want %q", i+1, got, want)
		}
	}
	// Interning a base name must return its base Sym, not a new one.
	if s := tab.Intern("alpha"); s != 2 {
		t.Errorf("Intern(alpha) = %d, want base Sym 2", s)
	}
	if s, ok := tab.Lookup("zeta"); !ok || s != 1 {
		t.Errorf("Lookup(zeta) = %d,%v, want 1,true", s, ok)
	}
	if _, ok := tab.Lookup("nope"); ok {
		t.Error("Lookup(nope) found a symbol")
	}
	// New names go to the overlay, densely above the base.
	s := tab.Intern("fresh")
	if s != 4 {
		t.Errorf("Intern(fresh) = %d, want 4", s)
	}
	if tab.Intern("fresh") != s {
		t.Error("re-Intern(fresh) returned a different Sym")
	}
	if got := tab.Name(s); got != "fresh" {
		t.Errorf("Name(fresh sym) = %q", got)
	}
	if got := tab.Len(); got != 5 {
		t.Errorf("Len after overlay intern = %d, want 5", got)
	}
	// Tuples intern above the base and resolve through it.
	tup := tab.InternTuple([]Sym{1, 2})
	if !tab.IsTuple(tup) || tab.IsTuple(1) {
		t.Error("IsTuple misclassified base/overlay syms")
	}
	if got := tab.Name(tup); got != "t(zeta,alpha)" {
		t.Errorf("tuple name = %q", got)
	}
	if tab.BaseLen() != 4 {
		t.Errorf("BaseLen = %d, want 4", tab.BaseLen())
	}
}

func TestBaseTableValidation(t *testing.T) {
	if _, err := NewTableFromBase([]byte("ab"), []uint32{0, 1}, []int32{1, 2}); err == nil {
		t.Error("offset/sorted length mismatch accepted")
	}
	if _, err := NewTableFromBase([]byte("ab"), []uint32{0, 2, 1}, []int32{1, 2}); err == nil {
		t.Error("non-monotone offsets accepted")
	}
	if _, err := NewTableFromBase([]byte("ab"), []uint32{0, 1, 9}, []int32{1, 2}); err == nil {
		t.Error("out-of-range offsets accepted")
	}
	if _, err := NewTableFromBase([]byte("ab"), []uint32{0, 1, 2}, []int32{1, 1}); err == nil {
		t.Error("non-permutation sort index accepted")
	}
}

// TestAppendNamesMatchesName holds the bulk resolver to Name over every
// kind of symbol — sentinel, base, overlay, tuple, out of range — on a
// table with a base and on one without.
func TestAppendNamesMatchesName(t *testing.T) {
	for name, tab := range map[string]*Table{"base": buildBase(t, "zeta", "alpha", "mid"), "plain": NewTable()} {
		fresh := tab.Intern("fresh")
		tup := tab.InternTuple([]Sym{fresh, tab.Intern("zeta")})
		syms := []Sym{2, fresh, None, tup, 1, Sym(tab.Len() + 7), 3, fresh}
		got := tab.AppendNames([]string{"kept"}, syms)
		if len(got) != len(syms)+1 || got[0] != "kept" {
			t.Fatalf("%s: AppendNames returned %q", name, got)
		}
		for i, s := range syms {
			if want := tab.Name(s); got[i+1] != want {
				t.Errorf("%s: AppendNames[%d] = %q, Name(%d) = %q", name, i, got[i+1], s, want)
			}
		}
		// The lock is released: a writer gets through afterwards.
		tab.Intern("after")
	}
}

// BenchmarkName resolves one symbol of the frozen base (no lock) and one
// of the overlay (read lock).
func BenchmarkName(b *testing.B) {
	tab, err := NewTableFromBase([]byte("alphamidzeta"), []uint32{0, 5, 8, 12}, []int32{1, 2, 3})
	if err != nil {
		b.Fatal(err)
	}
	for name, s := range map[string]Sym{"base": 2, "overlay": tab.Intern("fresh")} {
		b.Run(name, func(b *testing.B) {
			for b.Loop() {
				tab.Name(s)
			}
		})
	}
}
