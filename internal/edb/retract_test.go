package edb

import (
	"fmt"
	"testing"

	"chainlog/internal/symtab"
)

// scanAdj is the reference adjacency: a linear scan over the live
// tuples, in insertion order.
func scanAdj(r *Relation, keyCol, valCol int, key symtab.Sym) []symtab.Sym {
	var out []symtab.Sym
	r.EachRaw(func(t []symtab.Sym) {
		if t[keyCol] == key {
			out = append(out, t[valCol])
		}
	})
	return out
}

// TestRemoveBasics pins the Remove contract: removing a present tuple
// succeeds once, removing an absent / never-inserted / twice-removed
// tuple is a false no-op, and re-inserting after removal works.
func TestRemoveBasics(t *testing.T) {
	st := symtab.NewTable()
	s := NewStore(st)
	a, b, c := st.Intern("a"), st.Intern("b"), st.Intern("c")

	if s.Remove("edge", a, b) {
		t.Fatal("Remove on a relation that does not exist returned true")
	}
	s.Insert("edge", a, b)
	s.Insert("edge", b, c)
	if s.Remove("edge", a, c) {
		t.Fatal("Remove of a never-inserted tuple returned true")
	}
	if s.Remove("edge", a) {
		t.Fatal("Remove with the wrong arity returned true")
	}
	if !s.Remove("edge", a, b) {
		t.Fatal("Remove of a present tuple returned false")
	}
	if s.Remove("edge", a, b) {
		t.Fatal("second Remove of the same tuple returned true")
	}
	r := s.Relation("edge")
	if r.Len() != 1 || s.Size() != 1 {
		t.Fatalf("Len = %d, Size = %d after removal, want 1, 1", r.Len(), s.Size())
	}
	if r.Contains([]symtab.Sym{a, b}) {
		t.Fatal("removed tuple still Contains")
	}
	if got := r.Successors(a); len(got) != 0 {
		t.Fatalf("Successors(a) = %v after removing its only edge", got)
	}
	// Re-insert: the tuple is back and probes see it again.
	if !s.Insert("edge", a, b) {
		t.Fatal("re-insert after removal reported duplicate")
	}
	if got := r.Successors(a); len(got) != 1 || got[0] != b {
		t.Fatalf("Successors(a) = %v after re-insert", got)
	}
}

// TestOverlayMatchesRebuild is the CSR overlay-vs-rebuild equivalence
// property test: across random interleavings of inserts, removes and
// probes — sized to cross the adjTailMax refresh threshold and the
// compaction threshold many times — every adjacency answer must equal
// the naive scan over the live tuples, and a CSR built fresh from
// scratch must agree with the incrementally refreshed one.
func TestOverlayMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		st := symtab.NewTable()
		s := NewStore(st)
		syms := make([]symtab.Sym, 24)
		for i := range syms {
			syms[i] = st.Intern(fmt.Sprintf("n%d", i))
		}
		rng := uint64(seed)
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int((rng >> 33) % uint64(n))
		}
		var live [][2]symtab.Sym
		for op := 0; op < 2500; op++ {
			switch next(10) {
			case 0, 1, 2, 3: // insert
				u, v := syms[next(len(syms))], syms[next(len(syms))]
				was := s.Relation("edge").Contains([]symtab.Sym{u, v})
				if s.Insert("edge", u, v) == was {
					t.Fatalf("seed %d op %d: Insert(%v,%v) newness disagrees with Contains", seed, op, u, v)
				}
				if !was {
					live = append(live, [2]symtab.Sym{u, v})
				}
			case 4, 5, 6: // remove (usually a live tuple)
				if len(live) == 0 {
					continue
				}
				i := next(len(live))
				u, v := live[i][0], live[i][1]
				if !s.Remove("edge", u, v) {
					t.Fatalf("seed %d op %d: Remove of live (%v,%v) failed", seed, op, u, v)
				}
				live = append(live[:i], live[i+1:]...)
			case 7: // remove a random (often absent) tuple
				u, v := syms[next(len(syms))], syms[next(len(syms))]
				want := false
				for _, p := range live {
					if p[0] == u && p[1] == v {
						want = true
						break
					}
				}
				if s.Remove("edge", u, v) != want {
					t.Fatalf("seed %d op %d: Remove(%v,%v) disagrees with mirror", seed, op, u, v)
				}
				if want {
					for i, p := range live {
						if p[0] == u && p[1] == v {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
				}
			default: // probe both directions
				r := s.Relation("edge")
				if r == nil {
					continue
				}
				u := syms[next(len(syms))]
				if got, want := r.Successors(u), scanAdj(r, 0, 1, u); !symsEqual(got, want) {
					t.Fatalf("seed %d op %d: Successors(%v) = %v, scan = %v", seed, op, u, got, want)
				}
				if got, want := r.Predecessors(u), scanAdj(r, 1, 0, u); !symsEqual(got, want) {
					t.Fatalf("seed %d op %d: Predecessors(%v) = %v, scan = %v", seed, op, u, got, want)
				}
			}
			if r := s.Relation("edge"); r != nil && r.Len() != len(live) {
				t.Fatalf("seed %d op %d: Len = %d, mirror has %d", seed, op, r.Len(), len(live))
			}
		}
		// Final sweep: the incrementally maintained CSR must agree with a
		// from-scratch build (a cloned store compacts and rebuilds cold).
		r := s.Relation("edge")
		fresh := s.Clone().Relation("edge")
		for _, u := range syms {
			if got, want := r.Successors(u), fresh.Successors(u); !symsEqual(got, want) {
				t.Fatalf("seed %d: incremental Successors(%v) = %v, fresh rebuild = %v", seed, u, got, want)
			}
			if got, want := r.Predecessors(u), fresh.Predecessors(u); !symsEqual(got, want) {
				t.Fatalf("seed %d: incremental Predecessors(%v) = %v, fresh rebuild = %v", seed, u, got, want)
			}
		}
	}
}

// TestMatchAfterRemove covers the n-ary index maintenance: buckets built
// before a removal drop the slot, buckets built after never see it, and
// the unindexed (mask 0) path skips tombstones.
func TestMatchAfterRemove(t *testing.T) {
	st := symtab.NewTable()
	s := NewStore(st)
	a, b, c := st.Intern("a"), st.Intern("b"), st.Intern("c")
	s.Insert("r", a, b, c)
	s.Insert("r", a, c, b)
	s.Insert("r", b, a, c)
	r := s.Relation("r")

	// Build the col-0 index, then remove through it.
	if got := matchSlots(r, 1, []symtab.Sym{a}); len(got) != 2 {
		t.Fatalf("Match(a,_,_) = %v", got)
	}
	s.Remove("r", a, b, c)
	if got := matchSlots(r, 1, []symtab.Sym{a}); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Match(a,_,_) after remove = %v", got)
	}
	// A mask built after the removal never sees the tombstone.
	if got := matchSlots(r, 2, []symtab.Sym{b}); len(got) != 0 {
		t.Fatalf("Match(_,b,_) found removed tuple: %v", got)
	}
	// Unindexed enumeration skips tombstones too.
	if got := matchSlots(r, 0, nil); len(got) != 2 {
		t.Fatalf("Match(0) = %v, want two live slots", got)
	}
	count := 0
	r.Each(func([]symtab.Sym) { count++ })
	if count != 2 {
		t.Fatalf("Each visited %d tuples, want 2", count)
	}
}

// TestCompaction drives enough churn through one relation that the flat
// storage compacts (more than adjTailMax tombstones, at least half the
// slots dead), and checks the relation stays exact through it.
func TestCompaction(t *testing.T) {
	st := symtab.NewTable()
	s := NewStore(st)
	syms := make([]symtab.Sym, 8)
	for i := range syms {
		syms[i] = st.Intern(fmt.Sprintf("c%d", i))
	}
	r := (*Relation)(nil)
	// Waves of assert-then-retract force slots to accumulate and die;
	// two survivors (with sources the waves never touch) must persist
	// across every compaction.
	s.Insert("edge", syms[6], syms[1])
	s.Insert("edge", syms[7], syms[2])
	for wave := 0; wave < 40; wave++ {
		for i := 0; i < 6; i++ {
			s.Insert("edge", syms[i], syms[(i+wave)%8])
		}
		for i := 0; i < 6; i++ {
			s.Remove("edge", syms[i], syms[(i+wave)%8])
		}
		r = s.Relation("edge")
		if r.Len() != 2 {
			t.Fatalf("wave %d: Len = %d, want the 2 survivors", wave, r.Len())
		}
		if got := r.Successors(syms[0]); !symsEqual(got, scanAdj(r, 0, 1, syms[0])) {
			t.Fatalf("wave %d: Successors = %v, scan = %v", wave, got, scanAdj(r, 0, 1, syms[0]))
		}
	}
	// The slot space must have been compacted: without compaction ~240
	// wave slots would remain; with it the relation stays near its live
	// size.
	if r.tab.n > 3*adjTailMax {
		t.Fatalf("flat storage not compacted: %d slots for %d live tuples", r.tab.n, r.Len())
	}
	if got := r.Successors(syms[6]); len(got) != 1 || got[0] != syms[1] {
		t.Fatalf("survivor lost after compaction: %v", got)
	}
	if got := r.Successors(syms[7]); len(got) != 1 || got[0] != syms[2] {
		t.Fatalf("survivor lost after compaction: %v", got)
	}
}

// TestZeroArityRemove covers propositional predicates: one empty tuple,
// removable and re-assertable.
func TestZeroArityRemove(t *testing.T) {
	st := symtab.NewTable()
	s := NewStore(st)
	s.Insert("flag")
	if s.Relation("flag").Len() != 1 {
		t.Fatal("flag not set")
	}
	if !s.Remove("flag") {
		t.Fatal("Remove(flag) failed")
	}
	if s.Relation("flag").Len() != 0 {
		t.Fatal("flag still set")
	}
	if !s.Insert("flag") {
		t.Fatal("re-insert of flag reported duplicate")
	}
	if s.Relation("flag").Len() != 1 {
		t.Fatal("flag not re-set")
	}
}
