package symtab

import "testing"

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
