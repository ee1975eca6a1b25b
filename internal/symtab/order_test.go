package symtab

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
)

// randomNames draws n names from the shapes that stress an 8-byte key:
// prefixes longer than the key, names equal up to byte 8, embedded NUL,
// one name a prefix of another, "", multi-byte and invalid UTF-8.
func randomNames(rng *rand.Rand, n int) []string {
	stems := []string{
		"", "a", "ab", "abcdefgh", "abcdefghi", "abcdefgh\x00",
		"http://example.org/resource/", "http://example.org/resource/x/",
		"\x00", "\x00\x00", "é", "日本語", "\xff\xfe", "\xc3", "p",
	}
	tails := []string{"", "0", "1", "10", "\x00", "\x00z", "é", "\xff", "zzzzzzzzz", "abcdefgh"}
	names := make([]string, n)
	for i := range names {
		var b strings.Builder
		for range rng.Intn(3) + 1 {
			b.WriteString(stems[rng.Intn(len(stems))])
		}
		b.WriteString(tails[rng.Intn(len(tails))])
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&b, "%d", rng.Intn(50))
		}
		names[i] = b.String()
	}
	return names
}

// TestOrderMatchesSort: on random sets of every size around the
// radix/compare threshold, repeats included, Order agrees with
// slices.Sort and keeps equal names in input order.
func TestOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, orderSmall - 1, orderSmall, orderSmall + 1, 200, 3000} {
		for trial := range 20 {
			names := randomNames(rng, n)
			p := Order(names)
			got := make([]string, len(p))
			for j, i := range p {
				got[j] = names[i]
				if j > 0 && got[j] == got[j-1] && p[j] < p[j-1] {
					t.Fatalf("n=%d trial %d: equal names out of input order at %d", n, trial, j)
				}
			}
			want := slices.Clone(names)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d trial %d: Order disagrees with slices.Sort:\n got %q\nwant %q", n, trial, got, want)
			}
		}
	}
}

// TestOrderSharedPrefix: names that share a 40-byte prefix and differ in
// their last bytes order as slices.Sort does.
func TestOrderSharedPrefix(t *testing.T) {
	prefix := strings.Repeat("http://x/", 5)[:40]
	names := make([]string, 5000)
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", prefix, (i*7919)%5000)
	}
	p := Order(names)
	want := slices.Clone(names)
	slices.Sort(want)
	for j, i := range p {
		if names[i] != want[j] {
			t.Fatalf("position %d: %q, want %q", j, names[i], want[j])
		}
	}
}

// TestOrderLongSharedPrefix: groups that tie for hundreds of thousands
// of bytes — 40 names under one 600 KB prefix, and a staircase whose
// names split off one per 8 bytes — order as slices.Sort does, without a
// call per 8 shared bytes: the stack is capped at 32 MB, where a frame
// per 8 bytes would need gigabytes.
func TestOrderLongSharedPrefix(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(32 << 20))
	prefix := strings.Repeat("http://x/", 600_000/9)
	var names []string
	for i := range 40 {
		names = append(names, fmt.Sprintf("%s%d", prefix, (i*17)%40))
	}
	for i := range 80 {
		names = append(names, strings.Repeat("a", 8*i)+"b")
	}
	rand.New(rand.NewSource(1)).Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	p := Order(names)
	want := slices.Clone(names)
	slices.Sort(want)
	for j, i := range p {
		if names[i] != want[j] {
			t.Fatalf("position %d: name of %d bytes, want one of %d", j, len(names[i]), len(want[j]))
		}
	}
}

// TestInternAllMatchesIntern: a batch — repeats inside it, names the
// table already holds, names of a base — gets the Syms, Len and names a
// loop of Intern gives, on a plain table and on a base table.
func TestInternAllMatchesIntern(t *testing.T) {
	tables := map[string]func() *Table{
		"plain": NewTable,
		"base":  func() *Table { return buildBase(t, "m", "b", "zz") },
	}
	batch := []string{"q", "b", "a", "q", "held", "zz", "", "a", "new"}
	for name, build := range tables {
		one, all := build(), build()
		for _, tab := range []*Table{one, all} {
			tab.Intern("held")
		}
		var want []Sym
		for _, n := range batch {
			want = append(want, one.Intern(n))
		}
		got := all.InternAll(batch)
		if !slices.Equal(got, want) {
			t.Errorf("%s: InternAll = %v, Intern loop = %v", name, got, want)
		}
		if all.Len() != one.Len() {
			t.Errorf("%s: Len %d after InternAll, %d after the loop", name, all.Len(), one.Len())
		}
		for s := Sym(1); int(s) < one.Len(); s++ {
			if all.Name(s) != one.Name(s) {
				t.Errorf("%s: Name(%d) = %q, want %q", name, s, all.Name(s), one.Name(s))
			}
		}
		if s := all.Intern("later"); int(s) != one.Len() {
			t.Errorf("%s: Intern after InternAll = %d, want %d", name, s, one.Len())
		}
	}
}

// TestNamesNumbersFirstSeen: Names numbers distinct names from 1 in the
// order first added, across the slot table's growth, and Strings lists
// them by number.
func TestNamesNumbersFirstSeen(t *testing.T) {
	var ns Names
	var want []string
	seen := map[string]Sym{}
	for i := range 5000 {
		name := fmt.Sprintf("n%d", (i*37)%3000)
		s, err := ns.Add([]byte(name))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := seen[name]; !ok {
			want = append(want, name)
			seen[name] = Sym(len(want))
		}
		if s != seen[name] {
			t.Fatalf("Add(%s) = %d, want %d", name, s, seen[name])
		}
	}
	if got := ns.Strings(); !slices.Equal(got, want) {
		t.Errorf("Strings lists %d names, want the %d added in order", len(got), len(want))
	}
}

// TestInternAllReservesItsNewNames: a batch writes each new name's text
// once however often the batch repeats it, and a batch the table already
// holds allocates only the Syms it returns and leaves the arena's
// capacity as it was.
func TestInternAllReservesItsNewNames(t *testing.T) {
	tab := NewTable()
	tab.InternAll([]string{"held", "also"})
	got := tab.InternAll([]string{"new", "held", "new", "other", "new"})
	if want := []Sym{3, 1, 3, 4, 3}; !slices.Equal(got, want) {
		t.Fatalf("InternAll = %v, want %v", got, want)
	}
	if text := string(tab.overlay.b.blob); text != "heldalsonewother" {
		t.Errorf("arena text %q, want each name once", text)
	}
	blob, offs := cap(tab.overlay.b.blob), cap(tab.overlay.b.offs)
	batch := []string{"other", "held", "new", "held"}
	if n := testing.AllocsPerRun(10, func() { tab.InternAll(batch) }); n != 1 {
		t.Errorf("a batch of held names: %v allocations, want 1", n)
	}
	if cap(tab.overlay.b.blob) != blob || cap(tab.overlay.b.offs) != offs {
		t.Errorf("a batch of held names grew the arena")
	}
}
