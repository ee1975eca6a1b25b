package edb

import (
	"math/rand"
	"testing"

	"chainlog/internal/symtab"
)

// bruteKeys counts the distinct values of column col by scanning the live
// tuples, independent of the CSR machinery under test.
func bruteKeys(r *Relation, col int) int {
	seen := make(map[symtab.Sym]bool)
	r.Each(func(t []symtab.Sym) { seen[t[col]] = true })
	return len(seen)
}

func sameKeys(t *testing.T, r *Relation, phase string) {
	t.Helper()
	if got, want := r.Keys(false), bruteKeys(r, 0); got != want {
		t.Fatalf("%s: Keys(false) = %d, want %d", phase, got, want)
	}
	if got, want := r.Keys(true), bruteKeys(r, 1); got != want {
		t.Fatalf("%s: Keys(true) = %d, want %d", phase, got, want)
	}
}

// Key counts read off the CSR offset arrays equal brute-force distinct
// counts over random relations of assorted shapes.
func TestKeysMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		s := NewStore(symtab.NewTable())
		n := 2 + rng.Intn(60)
		for i := rng.Intn(6 * n); i > 0; i-- {
			s.Insert("e", symtab.Sym(rng.Intn(n)), symtab.Sym(rng.Intn(n)))
		}
		if r := s.Relation("e"); r != nil {
			sameKeys(t, r, "random")
		}
	}
}

// Key counts stay exact across the CSR lifecycle: writes noted on a
// published CSR, a CSR unpublished past adjTailMax notes, and the
// compaction a large retract ratio forces.
func TestKeysThroughWritesAndRebuild(t *testing.T) {
	s := NewStore(symtab.NewTable())
	rng := rand.New(rand.NewSource(11))
	var edges [][2]symtab.Sym
	insert := func(u, v int) {
		e := [2]symtab.Sym{symtab.Sym(u), symtab.Sym(v)}
		if s.Insert("e", e[0], e[1]) {
			edges = append(edges, e)
		}
	}
	for i := 0; i < 200; i++ {
		insert(rng.Intn(40), rng.Intn(40))
	}
	r := s.Relation("e")
	sameKeys(t, r, "fresh build")

	// A few writes, new keys among them: noted on both CSRs, which Keys
	// must rebuild rather than read as they stand.
	for i := 0; i < 5; i++ {
		insert(40+i, rng.Intn(40))
	}
	s.Remove("e", edges[0][0], edges[0][1])
	if c := r.fwd.Load(); c == nil || len(c.writes) == 0 {
		t.Fatal("the writes were not pending on the forward CSR")
	}
	sameKeys(t, r, "pending writes")

	// Past adjTailMax writes: the CSRs are unpublished.
	for i := 0; i < 2*adjTailMax; i++ {
		insert(rng.Intn(80), rng.Intn(80))
	}
	if r.fwd.Load() != nil || r.rev.Load() != nil {
		t.Fatal("a CSR outlived more than adjTailMax writes")
	}
	sameKeys(t, r, "unpublished")

	// Retract half: tombstones, then the compaction they force.
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, e := range edges[:len(edges)/2] {
		s.Remove("e", e[0], e[1])
	}
	sameKeys(t, r, "after retracts")
}

// A built (frozen) relation is counted off its installed CSRs: counting
// neither thaws it nor moves its version.
func TestKeysFrozenRelation(t *testing.T) {
	s := NewStore(symtab.NewTable())
	rng := rand.New(rand.NewSource(13))
	pairs := make([]symtab.Sym, 300)
	for i := range pairs {
		pairs[i] = symtab.Sym(rng.Intn(30))
	}
	r, err := s.BuildBinary("f", pairs)
	if err != nil {
		t.Fatal(err)
	}
	ver := r.Version()
	sameKeys(t, r, "frozen")
	if !r.Frozen() || r.Version() != ver {
		t.Fatalf("counting thawed the relation (frozen %v) or moved its version %d -> %d", r.Frozen(), ver, r.Version())
	}
}

// A relation wider than binary is counted per column.
func TestColumnDistinctWideArity(t *testing.T) {
	s := NewStore(symtab.NewTable())
	a, b, x, y, p := symtab.Sym(0), symtab.Sym(1), symtab.Sym(2), symtab.Sym(3), symtab.Sym(4)
	s.Insert("t", a, x, p)
	s.Insert("t", a, y, p)
	s.Insert("t", b, y, p)
	r := s.Relation("t")
	for col, want := range []int{2, 2, 1} {
		if got := r.ColumnDistinct(col); got != want {
			t.Fatalf("ColumnDistinct(%d) = %d, want %d", col, got, want)
		}
	}
}
