package edb

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"chainlog/internal/symtab"
)

func newStore() (*Store, *symtab.Table) {
	st := symtab.NewTable()
	return NewStore(st), st
}

func TestInsertDedup(t *testing.T) {
	s, st := newStore()
	a, b := st.Intern("a"), st.Intern("b")
	s.Insert("edge", a, b)
	s.Insert("edge", a, b)
	if s.Relation("edge").Len() != 1 {
		t.Fatalf("dedup failed: %d", s.Relation("edge").Len())
	}
	s.Insert("edge", b, a)
	if s.Relation("edge").Len() != 2 {
		t.Fatal("distinct tuple rejected")
	}
	if s.Size() != 2 {
		t.Fatalf("Size = %d", s.Size())
	}
}

func TestSuccessorsPredecessors(t *testing.T) {
	s, st := newStore()
	a, b, c := st.Intern("a"), st.Intern("b"), st.Intern("c")
	s.Insert("edge", a, b)
	s.Insert("edge", a, c)
	s.Insert("edge", b, c)
	succ := s.Relation("edge").Successors(a)
	if len(succ) != 2 {
		t.Fatalf("Successors(a) = %v", succ)
	}
	pred := s.Relation("edge").Predecessors(c)
	if len(pred) != 2 {
		t.Fatalf("Predecessors(c) = %v", pred)
	}
	if got := s.Relation("edge").Successors(c); len(got) != 0 {
		t.Fatalf("Successors(c) = %v", got)
	}
	// Insert after adjacency build must be visible.
	s.Insert("edge", c, a)
	if got := s.Relation("edge").Successors(c); len(got) != 1 {
		t.Fatal("adjacency cache not extended on insert")
	}
	if got := s.Relation("edge").Predecessors(a); len(got) != 1 {
		t.Fatal("reverse adjacency cache not extended on insert")
	}
}

// matchSlots collects the slots of r's live tuples matching (mask, bound),
// thawing a frozen relation so that its slots can be read.
func matchSlots(r *Relation, mask uint32, bound []symtab.Sym) []int32 {
	if r != nil {
		r.ensureThawed()
	}
	var out []int32
	r.MatchEach(mask, bound, nil, func(tuple []symtab.Sym) { out = append(out, int32(r.tab.Find(tuple))) })
	return out
}

func TestNilRelationSafe(t *testing.T) {
	s, st := newStore()
	var r *Relation = s.Relation("ghost")
	if r.Len() != 0 {
		t.Fatal("nil relation Len")
	}
	if r.Successors(st.Intern("x")) != nil {
		t.Fatal("nil relation Successors")
	}
	if matchSlots(r, 0, nil) != nil {
		t.Fatal("nil relation Match")
	}
	r.Each(func([]symtab.Sym) { t.Fatal("nil relation Each visited") })
	if r.Contains([]symtab.Sym{}) {
		t.Fatal("nil relation Contains")
	}
}

func TestMatchPatterns(t *testing.T) {
	s, st := newStore()
	i := func(n string) symtab.Sym { return st.Intern(n) }
	// flight(src, dt, dst, at)
	s.Insert("flight", i("hel"), i("900"), i("sto"), i("1000"))
	s.Insert("flight", i("hel"), i("930"), i("osl"), i("1030"))
	s.Insert("flight", i("sto"), i("1100"), i("par"), i("1300"))

	r := s.Relation("flight")
	// Bind column 0.
	got := matchSlots(r, 1<<0, []symtab.Sym{i("hel")})
	if len(got) != 2 {
		t.Fatalf("Match col0=hel: %d rows", len(got))
	}
	// Bind columns 0 and 1.
	got = matchSlots(r, 1<<0|1<<1, []symtab.Sym{i("hel"), i("930")})
	if len(got) != 1 || st.Name(r.Tuple(int(got[0]))[2]) != "osl" {
		t.Fatalf("Match col0,1: %v", got)
	}
	// Unbound mask returns all.
	if got = matchSlots(r, 0, nil); len(got) != 3 {
		t.Fatalf("Match all: %d", len(got))
	}
	// Index extended by later inserts.
	s.Insert("flight", i("hel"), i("1200"), i("cdg"), i("1500"))
	if got = matchSlots(r, 1<<0, []symtab.Sym{i("hel")}); len(got) != 3 {
		t.Fatalf("Match after insert: %d", len(got))
	}
	// MatchEach materializes the same rows.
	n := 0
	r.MatchEach(1<<0, []symtab.Sym{i("hel")}, nil, func(tuple []symtab.Sym) {
		if tuple[0] != i("hel") {
			t.Fatal("MatchEach returned wrong tuple")
		}
		n++
	})
	if n != 3 {
		t.Fatalf("MatchEach visited %d", n)
	}
}

func TestDomain(t *testing.T) {
	s, st := newStore()
	i := func(n string) symtab.Sym { return st.Intern(n) }
	s.Insert("edge", i("b"), i("c"))
	s.Insert("edge", i("a"), i("c"))
	d := s.Relation("edge").Domain(0)
	if len(d) != 2 || st.Name(d[0]) != "b" || st.Name(d[1]) != "a" {
		// sorted by Sym id: b interned first
		t.Fatalf("Domain = %v %v", st.Name(d[0]), st.Name(d[1]))
	}
	rg := s.Relation("edge").Domain(1)
	if len(rg) != 1 || st.Name(rg[0]) != "c" {
		t.Fatalf("Domain(1) = %v", rg)
	}
}

func TestClone(t *testing.T) {
	s, st := newStore()
	a, b := st.Intern("a"), st.Intern("b")
	s.Insert("edge", a, b)
	c := s.Clone()
	c.Insert("edge", b, a)
	if s.Relation("edge").Len() != 1 {
		t.Fatal("clone mutated original")
	}
	if c.Relation("edge").Len() != 2 {
		t.Fatal("clone missing insert")
	}
	if !c.Relation("edge").Contains([]symtab.Sym{a, b}) {
		t.Fatal("clone lost original tuple")
	}
	// Duplicate suppression carries over.
	c.Insert("edge", a, b)
	if c.Relation("edge").Len() != 2 {
		t.Fatal("clone lost dedup set")
	}
}

func TestZeroArityRelation(t *testing.T) {
	s, _ := newStore()
	s.Insert("ok")
	r := s.Relation("ok")
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	s.Insert("ok") // dedup of the empty tuple
	if r.Len() != 1 {
		t.Fatalf("Len after dup = %d", r.Len())
	}
	if !r.Contains(nil) {
		t.Fatal("Contains(empty) = false")
	}
	if got := matchSlots(r, 0, nil); len(got) != 1 {
		t.Fatalf("Match = %v", got)
	}
	visits := 0
	r.Each(func(tuple []symtab.Sym) {
		if len(tuple) != 0 {
			t.Fatalf("tuple = %v", tuple)
		}
		visits++
	})
	if visits != 1 {
		t.Fatalf("Each visited %d", visits)
	}
	c := s.Clone()
	if c.Relation("ok").Len() != 1 {
		t.Fatal("clone lost zero-arity tuple")
	}
}

func TestArityMismatchPanics(t *testing.T) {
	s, st := newStore()
	s.Insert("p", st.Intern("a"))
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	s.Insert("p", st.Intern("a"), st.Intern("b"))
}

// Property: Match(mask, bound) returns exactly the tuples a linear scan
// with the same filter would — for random relations, masks and probes.
func TestMatchAgainstScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, st := newStore()
		arity := rng.Intn(3) + 1
		domain := make([]symtab.Sym, 5)
		for i := range domain {
			domain[i] = st.Intern(fmt.Sprintf("c%d", i))
		}
		n := rng.Intn(40)
		for k := 0; k < n; k++ {
			tuple := make([]symtab.Sym, arity)
			for i := range tuple {
				tuple[i] = domain[rng.Intn(len(domain))]
			}
			s.Insert("r", tuple...)
		}
		r := s.Relation("r")
		if r == nil {
			return true
		}
		mask := uint32(rng.Intn(1 << arity))
		var bound []symtab.Sym
		for i := 0; i < arity; i++ {
			if mask&(1<<i) != 0 {
				bound = append(bound, domain[rng.Intn(len(domain))])
			}
		}
		got := map[int32]bool{}
		for _, idx := range matchSlots(r, mask, bound) {
			got[idx] = true
		}
		// Linear scan.
		want := map[int32]bool{}
		for i := 0; i < r.Len(); i++ {
			tuple := r.Tuple(i)
			match := true
			bi := 0
			for c := 0; c < arity; c++ {
				if mask&(1<<c) != 0 {
					if tuple[c] != bound[bi] {
						match = false
					}
					bi++
				}
			}
			if match {
				want[int32(i)] = true
			}
		}
		if len(got) != len(want) {
			return false
		}
		for k := range want {
			if !got[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
