package symtab

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestSortRowsMatchesNameOrder holds SortRows to a sort of the rendered
// rows, over bases in and out of name order, overlay names that sort
// between, before and after the base's, and the sentinel, at
// widths 1 to 3.
func TestSortRowsMatchesNameOrder(t *testing.T) {
	sorted := []string{"", "a", "b10", "b2", "m", "t1", "t10", "zz"}
	shuffled := []string{"t10", "a", "zz", "b2", "", "m", "t1", "b10"}
	rng := rand.New(rand.NewSource(1))
	for name, tab := range map[string]*Table{
		"name-ordered base": buildBase(t, sorted...),
		"out-of-order base": buildBase(t, shuffled...),
		"no base":           NewTable(),
	} {
		if want := name == "name-ordered base"; tab.ordered != want {
			t.Fatalf("%s: ordered = %v, want %v", name, tab.ordered, want)
		}
		var syms []Sym
		for _, n := range append(slices.Clone(sorted), "0", "b", "t1a", "zzz", "é") {
			syms = append(syms, tab.Intern(n))
		}
		syms = append(syms, None)
		for w := 1; w <= 3; w++ {
			for round := 0; round < 50; round++ {
				cells := make([]Sym, w*rng.Intn(40))
				for i := range cells {
					cells[i] = syms[rng.Intn(len(syms))]
				}
				if round%5 == 0 && w == 1 {
					slices.Sort(cells) // ids ascending: in name order only on the ordered base
				}
				want := rows(tab.AppendNames(nil, cells), w)
				slices.SortStableFunc(want, slices.Compare)
				tab.SortRows(cells, w)
				if got := rows(tab.AppendNames(nil, cells), w); !slices.EqualFunc(got, want, slices.Equal) {
					t.Fatalf("%s, width %d: sorted to %q, want %q", name, w, got, want)
				}
			}
		}
	}
}

func rows(names []string, w int) [][]string {
	var out [][]string
	for i := 0; i+w <= len(names); i += w {
		out = append(out, names[i:i+w])
	}
	return out
}

// TestSortRowsLeavesAscendingBaseAlone pins the fast path: a one-column
// answer of ascending ids over a name-ordered base is not moved and costs
// no allocation.
func TestSortRowsLeavesAscendingBaseAlone(t *testing.T) {
	names := make([]string, 1000)
	for i := range names {
		names[i] = fmt.Sprintf("n%04d", i)
	}
	tab := buildBase(t, names...)
	cells := make([]Sym, 0, len(names))
	for s := Sym(1); int(s) < tab.BaseLen(); s += 2 {
		cells = append(cells, s)
	}
	want := slices.Clone(cells)
	if got := testing.AllocsPerRun(20, func() { tab.SortRows(cells, 1) }); got != 0 {
		t.Errorf("SortRows allocates %.1f objects on an ascending base answer", got)
	}
	if !slices.Equal(cells, want) {
		t.Error("SortRows moved an ascending base answer")
	}
}

// TestViewTakesTheLockOnce checks a View against Name for every kind of
// symbol, and that it does not take the read lock for base symbols: a
// writer holding the lock does not block it.
func TestViewTakesTheLockOnce(t *testing.T) {
	tab := buildBase(t, "alpha", "mid", "zeta")
	fresh := tab.Intern("fresh")
	v := tab.View()
	for _, s := range []Sym{None, 1, 2, 3, fresh, Sym(tab.Len() + 3)} {
		if got, want := v.Name(s), tab.Name(s); got != want {
			t.Errorf("View.Name(%d) = %q, Name = %q", s, got, want)
		}
	}
	later := tab.Intern("later")
	if got := v.Name(later); got != "later" {
		t.Errorf("View.Name of a symbol interned after the view loaded = %q", got)
	}
	tab.mu.Lock()
	defer tab.mu.Unlock()
	base := tab.View()
	if got := base.Name(2); got != "mid" {
		t.Errorf("base name under a held write lock = %q", got)
	}
	if got := v.Name(fresh); got != "fresh" {
		t.Errorf("loaded overlay name under a held write lock = %q", got)
	}
}

// TestViewConcurrentWithIntern reads names through views and sorts
// overlay rows while another goroutine interns, one name at a time and
// in batches: a view reads the overlay's entries without the lock, which
// is sound only because an entry never changes once written. Run under
// -race.
func TestViewConcurrentWithIntern(t *testing.T) {
	tab := buildBase(t, "alpha", "mid", "zeta")
	var first []Sym
	for i := range 64 {
		first = append(first, tab.Intern(fmt.Sprintf("n%02d", 63-i)))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range 2000 {
			tab.Intern(fmt.Sprintf("later%d", i))
			if i%100 == 0 {
				tab.InternAll([]string{fmt.Sprintf("batch%d", i), "n05", fmt.Sprintf("later%d", i)})
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		v := tab.View()
		for i, s := range first {
			if got, want := v.Name(s), fmt.Sprintf("n%02d", 63-i); got != want {
				t.Fatalf("View.Name(%d) = %q, want %q", s, got, want)
			}
		}
		cells := slices.Clone(first)
		tab.SortRows(cells, 1)
		if got := tab.Name(cells[0]); got != "n00" {
			t.Fatalf("first row after the sort is %q, want n00", got)
		}
	}
}
