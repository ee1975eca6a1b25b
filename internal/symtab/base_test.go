package symtab

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// flatten lays names (assigned Syms 1..n in order) out as the blob and
// offsets NewTableFromBase consumes.
func flatten(names []string) ([]byte, []uint32) {
	var blob []byte
	offs := make([]uint32, 1, len(names)+1)
	for _, n := range names {
		blob = append(blob, n...)
		offs = append(offs, uint32(len(blob)))
	}
	return blob, offs
}

// buildBase returns a table over a frozen base of names.
func buildBase(tb testing.TB, names ...string) *Table {
	tb.Helper()
	tab, err := NewTableFromBase(flatten(names))
	if err != nil {
		tb.Fatalf("NewTableFromBase: %v", err)
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
	if tab.BaseLen() != 4 {
		t.Errorf("BaseLen = %d, want 4", tab.BaseLen())
	}
}

func TestBaseTableValidation(t *testing.T) {
	if _, err := NewTableFromBase([]byte("ab"), nil); err == nil {
		t.Error("missing offsets accepted")
	}
	if _, err := NewTableFromBase([]byte("ab"), []uint32{0, 2, 1}); err == nil {
		t.Error("non-monotone offsets accepted")
	}
	if _, err := NewTableFromBase([]byte("ab"), []uint32{0, 1, 9}); err == nil {
		t.Error("out-of-range offsets accepted")
	}
	// A repeated name would alias: the second id could never be found.
	for _, names := range [][]string{{"a", "a"}, {"x", "", "y", ""}, {"p", "q", "r", "q"}} {
		_, err := NewTableFromBase(flatten(names))
		if err == nil || !strings.Contains(err.Error(), "repeated") {
			t.Errorf("base %q: err = %v, want a repeated-name error", names, err)
		}
	}
	if tab, err := NewTableFromBase(nil, []uint32{0}); err != nil || tab.Len() != 1 {
		t.Fatalf("empty base: %v", err)
	} else if _, ok := tab.Lookup(""); ok {
		t.Error("empty base found a name")
	}
}

// TestBaseLookupFindsEveryName interns every name of a base large enough
// for long probe chains, the empty name and common prefixes included, and
// misses names it does not hold.
func TestBaseLookupFindsEveryName(t *testing.T) {
	names := []string{""}
	for i := range 5000 {
		names = append(names, fmt.Sprintf("p%d", i), fmt.Sprintf("p%d'", i))
	}
	tab := buildBase(t, names...)
	for i, n := range names {
		if s := tab.Intern(n); s != Sym(i+1) {
			t.Fatalf("Intern(%q) = %d, want %d", n, s, i+1)
		}
	}
	for _, n := range []string{"p", "p5000", "q1", "p1''", " p1"} {
		if s, ok := tab.Lookup(n); ok {
			t.Errorf("Lookup(%q) found Sym %d", n, s)
		}
	}
	if tab.Len() != len(names)+1 {
		t.Errorf("Len = %d after interning base names only, want %d", tab.Len(), len(names)+1)
	}
}

// TestBaseBatchLeavesOverlayAlone: a batch of names the base holds, as a
// WAL snapshot restored over the snapshot a daemon booted on is, gets the
// base Syms and builds no overlay slot table.
func TestBaseBatchLeavesOverlayAlone(t *testing.T) {
	tab := buildBase(t, "a", "b", "c")
	if got := tab.InternAll([]string{"c", "a", "b", "a"}); !slices.Equal(got, []Sym{3, 1, 2, 1}) {
		t.Errorf("InternAll of base names = %v, want [3 1 2 1]", got)
	}
	if tab.overlay.b.slots != nil || tab.Len() != 4 {
		t.Errorf("a batch of base names left %d overlay slots, Len %d", len(tab.overlay.b.slots), tab.Len())
	}
}

// TestAppendNamesMatchesName holds the bulk resolver to Name over every
// kind of symbol — sentinel, base, overlay, out of range — on a
// table with a base and on one without.
func TestAppendNamesMatchesName(t *testing.T) {
	for name, tab := range map[string]*Table{"base": buildBase(t, "zeta", "alpha", "mid"), "plain": NewTable()} {
		fresh := tab.Intern("fresh")
		syms := []Sym{2, fresh, None, tab.Intern("zeta"), 1, Sym(tab.Len() + 7), 3, fresh}
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
	tab := buildBase(b, "alpha", "mid", "zeta")
	for name, s := range map[string]Sym{"base": 2, "overlay": tab.Intern("fresh")} {
		b.Run(name, func(b *testing.B) {
			for b.Loop() {
				tab.Name(s)
			}
		})
	}
}

// BenchmarkBaseIntern interns names a 50,000-name base holds, cycling
// through all of them, the lookup a text fact's constants take when a
// program loads over a snapshot; index is the one-time build at open.
func BenchmarkBaseIntern(b *testing.B) {
	names := make([]string, 50_000)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	blob, offs := flatten(names)
	b.Run("intern", func(b *testing.B) {
		tab, err := NewTableFromBase(blob, offs)
		if err != nil {
			b.Fatal(err)
		}
		i := 0
		for b.Loop() {
			tab.Intern(names[i])
			if i++; i == len(names) {
				i = 0
			}
		}
	})
	b.Run("index", func(b *testing.B) {
		for b.Loop() {
			if _, err := NewTableFromBase(blob, offs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
