package stats

import (
	"math/rand"
	"testing"

	"chainlog/internal/edb"
	"chainlog/internal/symtab"
)

// bruteDegrees recomputes per-key degrees by scanning raw tuples,
// independent of the CSR machinery under test.
func bruteDegrees(r *edb.Relation, col int) map[symtab.Sym]int {
	deg := make(map[symtab.Sym]int)
	r.Each(func(t []symtab.Sym) { deg[t[col]]++ })
	return deg
}

// bruteStats builds the snapshot a correct Collect must produce for a
// binary relation, from nothing but the raw tuple scan.
func bruteStats(r *edb.Relation) *RelStats {
	s := &RelStats{Name: r.Name(), Arity: 2, Version: r.Version(), Tuples: r.Len()}
	for _, d := range bruteDegrees(r, 0) {
		s.OutKeys++
		if d > s.MaxOut {
			s.MaxOut = d
		}
		s.OutHist.Add(d)
	}
	for _, d := range bruteDegrees(r, 1) {
		s.InKeys++
		if d > s.MaxIn {
			s.MaxIn = d
		}
		s.InHist.Add(d)
	}
	s.Distinct = []int{s.OutKeys, s.InKeys}
	return s
}

func sameStats(t *testing.T, got, want *RelStats) {
	t.Helper()
	if got.Tuples != want.Tuples || got.OutKeys != want.OutKeys || got.InKeys != want.InKeys ||
		got.MaxOut != want.MaxOut || got.MaxIn != want.MaxIn {
		t.Fatalf("stats mismatch:\n got %+v\nwant %+v", got, want)
	}
	if got.OutHist != want.OutHist || got.InHist != want.InHist {
		t.Fatalf("histogram mismatch:\n got out=%s in=%s\nwant out=%s in=%s",
			got.OutHist.String(), got.InHist.String(), want.OutHist.String(), want.InHist.String())
	}
	if len(got.Distinct) != 2 || got.Distinct[0] != want.Distinct[0] || got.Distinct[1] != want.Distinct[1] {
		t.Fatalf("distinct mismatch: got %v want %v", got.Distinct, want.Distinct)
	}
}

// Histograms computed off the CSR offset arrays must equal brute-force
// degree counts over random relations of assorted shapes.
func TestCollectMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		st := symtab.NewTable()
		store := edb.NewStore(st)
		n := 2 + rng.Intn(60)
		m := rng.Intn(6 * n)
		for i := 0; i < m; i++ {
			store.Insert("e", symtab.Sym(st.Intern(names(rng.Intn(n)))), symtab.Sym(st.Intern(names(rng.Intn(n)))))
		}
		r := store.Relation("e")
		if r == nil {
			continue
		}
		sameStats(t, Collect(r), bruteStats(r))
	}
}

func names(i int) string {
	return "n" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
}

// Collection must stay exact across the incremental CSR lifecycle:
// fresh build, small-overlay merges, removals with tombstones, and the
// compaction a large retract ratio forces.
func TestCollectSurvivesOverlayAndRebuild(t *testing.T) {
	st := symtab.NewTable()
	store := edb.NewStore(st)
	rng := rand.New(rand.NewSource(11))
	sym := func(i int) symtab.Sym { return symtab.Sym(st.Intern(names(i))) }

	var edges [][2]int
	insert := func(u, v int) {
		if store.Insert("e", sym(u), sym(v)) {
			edges = append(edges, [2]int{u, v})
		}
	}
	for i := 0; i < 200; i++ {
		insert(rng.Intn(40), rng.Intn(40))
	}
	r := store.Relation("e")
	// Force a CSR build, then mutate within (and past) the overlay
	// window, re-collecting after every phase.
	_ = r.Successors(sym(0))
	sameStats(t, Collect(r), bruteStats(r))

	// A handful of inserts: absorbed by the overlay or a merge.
	for i := 0; i < 5; i++ {
		insert(40+i, rng.Intn(40))
	}
	sameStats(t, Collect(r), bruteStats(r))

	// A bulk insert past any overlay window: full rebuild path.
	for i := 0; i < 300; i++ {
		insert(rng.Intn(80), rng.Intn(80))
	}
	sameStats(t, Collect(r), bruteStats(r))

	// Retract half: tombstones, then the compaction they trigger.
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, e := range edges[:len(edges)/2] {
		store.Remove("e", sym(e[0]), sym(e[1]))
	}
	sameStats(t, Collect(r), bruteStats(r))
}

// Frozen (CSR-installed) relations must report exact statistics without
// being thawed: BuildBinary keeps the relation's version in lockstep
// with its CSRs, so DegreeEach reads them as-is.
func TestCollectFrozenRelation(t *testing.T) {
	st := symtab.NewTable()
	store := edb.NewStore(st)
	rng := rand.New(rand.NewSource(13))
	var pairs []symtab.Sym
	seen := make(map[[2]symtab.Sym]bool)
	for i := 0; i < 150; i++ {
		e := [2]symtab.Sym{symtab.Sym(st.Intern(names(rng.Intn(30)))), symtab.Sym(st.Intern(names(rng.Intn(30))))}
		if !seen[e] {
			seen[e] = true
			pairs = append(pairs, e[0], e[1])
		}
	}
	r, err := store.BuildBinary("f", pairs)
	if err != nil {
		t.Fatal(err)
	}
	ver := r.Version()
	sameStats(t, Collect(r), bruteStats(r))
	if r.Version() != ver {
		t.Fatalf("collection moved the frozen relation's version: %d -> %d (thawed?)", ver, r.Version())
	}
}

// Collect on a wider-arity relation fills per-column distinct counts.
func TestCollectWideArity(t *testing.T) {
	st := symtab.NewTable()
	store := edb.NewStore(st)
	sym := func(s string) symtab.Sym { return symtab.Sym(st.Intern(s)) }
	store.Insert("t", sym("a"), sym("x"), sym("p"))
	store.Insert("t", sym("a"), sym("y"), sym("p"))
	store.Insert("t", sym("b"), sym("y"), sym("p"))
	s := Collect(store.Relation("t"))
	if s.Arity != 3 || s.Tuples != 3 {
		t.Fatalf("arity/tuples: %+v", s)
	}
	want := []int{2, 2, 1}
	for i, w := range want {
		if s.Distinct[i] != w {
			t.Fatalf("distinct[%d] = %d, want %d", i, s.Distinct[i], w)
		}
	}
}

// The collector returns cached snapshots while the relation version
// holds, recomputes after mutations, and drops everything on Invalidate.
func TestCollectorCaching(t *testing.T) {
	st := symtab.NewTable()
	store := edb.NewStore(st)
	sym := func(s string) symtab.Sym { return symtab.Sym(st.Intern(s)) }
	store.Insert("e", sym("a"), sym("b"))
	r := store.Relation("e")

	var c Collector
	s1 := c.Stats(r)
	if s2 := c.Stats(r); s2 != s1 {
		t.Fatal("unchanged relation should hit the cache")
	}
	store.Insert("e", sym("b"), sym("c"))
	s3 := c.Stats(r)
	if s3 == s1 || s3.Tuples != 2 {
		t.Fatalf("mutation should recompute: %+v", s3)
	}
	c.Invalidate()
	if s4 := c.Stats(r); s4 == s3 {
		t.Fatal("Invalidate should drop the cache")
	}
	if got := c.Stats(nil); got.Tuples != 0 || got.Name != "" {
		t.Fatalf("nil relation should yield the empty snapshot, got %+v", got)
	}
}

// The degree histogram places degrees in log2 buckets.
func TestHistBuckets(t *testing.T) {
	var h Hist
	for _, d := range []int{1, 2, 3, 4, 7, 8, 1 << 20, 0, -3} {
		h.Add(d)
	}
	var keys int64
	for _, c := range h.Buckets {
		keys += c
	}
	if keys != 7 {
		t.Fatalf("%d keys recorded, want 7 (non-positive ignored)", keys)
	}
	if h.Buckets[0] != 1 || h.Buckets[1] != 2 || h.Buckets[2] != 2 || h.Buckets[3] != 1 || h.Buckets[20] != 1 {
		t.Fatalf("bucket layout wrong: %s", h.String())
	}
}
