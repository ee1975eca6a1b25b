package symtab

import (
	"fmt"
	"sync"
	"testing"
)

func TestInternRoundTrip(t *testing.T) {
	tb := NewTable()
	names := []string{"a", "b", "john", "ap0", "900", "a"} // "a" repeated
	syms := make(map[string]Sym)
	for _, n := range names {
		s := tb.Intern(n)
		if prev, ok := syms[n]; ok && prev != s {
			t.Fatalf("Intern(%q) not stable: %d vs %d", n, prev, s)
		}
		syms[n] = s
		if got := tb.Name(s); got != n {
			t.Fatalf("Name(Intern(%q)) = %q", n, got)
		}
	}
	if len(syms) != 5 {
		t.Fatalf("expected 5 distinct symbols, got %d", len(syms))
	}
}

func TestNoneReserved(t *testing.T) {
	tb := NewTable()
	if s := tb.Intern("x"); s == None {
		t.Fatal("Intern returned the None sentinel")
	}
	if tb.Name(None) != "∅" {
		t.Fatalf("Name(None) = %q", tb.Name(None))
	}
}

func TestLookupDoesNotCreate(t *testing.T) {
	tb := NewTable()
	if _, ok := tb.Lookup("ghost"); ok {
		t.Fatal("Lookup found a symbol that was never interned")
	}
	n := tb.Len()
	tb.Lookup("ghost")
	if tb.Len() != n {
		t.Fatal("Lookup grew the table")
	}
	s := tb.Intern("ghost")
	if got, ok := tb.Lookup("ghost"); !ok || got != s {
		t.Fatal("Lookup after Intern disagrees")
	}
}

// TestOverlayGrowsUnderReaders interns names one at a time and in
// batches from two goroutines while two more resolve them through
// Lookup, Name and View, as the overlay crosses several doublings of its
// slot table and reallocations of its blob: a view reads the arena's
// bytes without the lock, which is sound only because a name's bytes
// never change once written. Every name round-trips, and the ids are
// dense and numbered in the order the names first came. Run under -race.
func TestOverlayGrowsUnderReaders(t *testing.T) {
	const writers, perWriter, batch = 2, 6000, 50
	for kind, tab := range map[string]*Table{"plain": NewTable(), "base": buildBase(t, "alpha", "mid", "zeta")} {
		first := tab.Len()
		nameOf := func(w, i int) string { return fmt.Sprintf("w%d-%d", w, i) }
		syms := make([][]Sym, writers)
		var wg, readers sync.WaitGroup
		done := make(chan struct{})
		for w := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWriter; {
					if i%(2*batch) == 0 {
						names := []string{nameOf(w, max(i-1, 0))} // a repeat
						for j := range batch {
							names = append(names, nameOf(w, i+j))
						}
						got := tab.InternAll(names)
						if i > 0 && got[0] != syms[w][i-1] {
							t.Errorf("InternAll gave %s Sym %d, Intern gave %d", names[0], got[0], syms[w][i-1])
						}
						syms[w] = append(syms[w], got[1:]...)
						i += batch
						continue
					}
					syms[w] = append(syms[w], tab.Intern(nameOf(w, i)))
					i++
				}
			}()
		}
		for r := range 2 {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					want := nameOf(r, i%perWriter)
					if s, ok := tab.Lookup(want); ok {
						if got := tab.Name(s); got != want {
							t.Errorf("Name(Lookup(%s)) = %q", want, got)
							return
						}
					}
					v := tab.View()
					for s := Sym(first); int(s) < tab.Len(); s += 97 {
						n := v.Name(s)
						if got, ok := tab.Lookup(n); !ok || got != s {
							t.Errorf("View.Name(%d) = %q, which looks up as %d, %v", s, n, got, ok)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(done)
		readers.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if got, want := tab.Len(), first+writers*perWriter; got != want {
			t.Fatalf("%s: Len = %d after %d names, want %d", kind, got, writers*perWriter, want)
		}
		seen := make([]bool, tab.Len())
		for w := range writers {
			for i, s := range syms[w] {
				if int(s) < first || int(s) >= len(seen) {
					t.Fatalf("%s: %s took Sym %d, outside [%d, %d)", kind, nameOf(w, i), s, first, len(seen))
				}
				if got := tab.Name(s); got != nameOf(w, i) || seen[s] {
					t.Fatalf("%s: Sym %d of %s reads %q (seen before: %v)", kind, s, nameOf(w, i), got, seen[s])
				}
				seen[s] = true
				if i > 0 && s <= syms[w][i-1] {
					t.Fatalf("%s: %s took Sym %d, after %d for the name before it", kind, nameOf(w, i), s, syms[w][i-1])
				}
			}
		}
	}
}

// BenchmarkInternAll interns a batch of 50,000 new names in one call: into
// an empty table, as `chainlog ingest` numbers a fresh DB, and into one
// whose overlay already holds 20,000 names, as an ingest after a program
// load does. The table is built outside the timer.
func BenchmarkInternAll(b *testing.B) {
	batch, loaded := make([]string, 50_000), make([]string, 20_000)
	for i := range batch {
		batch[i] = fmt.Sprintf("p%d", i)
	}
	for i := range loaded {
		loaded[i] = fmt.Sprintf("q%d", i)
	}
	for name, held := range map[string][]string{"empty": nil, "loaded": loaded} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				b.StopTimer()
				tab := NewTable()
				tab.InternAll(held)
				b.StartTimer()
				tab.InternAll(batch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/name")
		})
	}
}
