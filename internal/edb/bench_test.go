package edb

import (
	"fmt"
	"math/rand"
	"testing"

	"chainlog/internal/symtab"
)

// BenchmarkInsert measures tuple ingestion with dedup.
func BenchmarkInsert(b *testing.B) {
	st := symtab.NewTable()
	syms := make([]symtab.Sym, 1024)
	for i := range syms {
		syms[i] = st.Intern(fmt.Sprintf("c%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStore(st)
		for k := 0; k < 1024; k++ {
			s.Insert("edge", syms[k], syms[(k*7+1)%1024])
		}
	}
	b.ReportMetric(1024, "tuples/op")
}

// BenchmarkSuccessors measures the binary adjacency fast path (the
// paper's per-tuple retrieval time t).
func BenchmarkSuccessors(b *testing.B) {
	st := symtab.NewTable()
	s := NewStore(st)
	syms := make([]symtab.Sym, 1024)
	for i := range syms {
		syms[i] = st.Intern(fmt.Sprintf("c%d", i))
	}
	for k := 0; k < 4096; k++ {
		s.Insert("edge", syms[k%1024], syms[(k*13+5)%1024])
	}
	r := s.Relation("edge")
	r.Successors(syms[0]) // build adjacency
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Successors(syms[i%1024])
	}
}

// BenchmarkMatch measures indexed n-ary pattern lookups (flight-style
// 4-column relation, two bound columns) as a join performs them.
func BenchmarkMatch(b *testing.B) {
	st := symtab.NewTable()
	s := NewStore(st)
	syms := make([]symtab.Sym, 256)
	for i := range syms {
		syms[i] = st.Intern(fmt.Sprintf("c%d", i))
	}
	for k := 0; k < 8192; k++ {
		s.Insert("flight", syms[k%256], syms[(k*3)%256], syms[(k*5)%256], syms[(k*7)%256])
	}
	r := s.Relation("flight")
	mask := uint32(1<<0 | 1<<1)
	visit := func([]symtab.Sym) {}
	r.MatchEach(mask, []symtab.Sym{syms[0], syms[0]}, nil, visit) // build index
	bound := make([]symtab.Sym, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bound[0], bound[1] = syms[i%256], syms[(i*3)%256]
		r.MatchEach(mask, bound, nil, visit)
	}
}

// BenchmarkAdjOverlay prices the keyed overlay against rebuilding on every
// write, under interleaved insert/remove churn with one probe per write:
// /incremental lets each CSR note the writes under their keys, a probe
// paying only for its own key's, and rebuilds by counting sort once per
// adjTailMax notes, while /fullRebuild unpublishes the CSR after every
// write — the "any change rebuilds the adjacency from scratch" cost
// model.
func BenchmarkAdjOverlay(b *testing.B) {
	build := func(b *testing.B, edges int) (*Store, []symtab.Sym, *Relation) {
		b.Helper()
		st := symtab.NewTable()
		s := NewStore(st)
		syms := make([]symtab.Sym, 1024)
		for i := range syms {
			syms[i] = st.Intern(fmt.Sprintf("c%d", i))
		}
		for k := 0; k < edges; k++ {
			s.Insert("edge", syms[k%len(syms)], syms[(k*13+5)%len(syms)])
		}
		r := s.Relation("edge")
		r.Successors(syms[0]) // publish the CSR
		return s, syms, r
	}
	const edges = 16384
	churn := func(b *testing.B, unpublish bool) {
		s, syms, r := build(b, edges)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Insert at even i, remove the same tuple at odd i.
			k := i / 2
			u, v := syms[(k*3+1)%len(syms)], syms[(k*7+2)%len(syms)]
			if i%2 == 0 {
				s.Insert("edge", u, v)
			} else {
				s.Remove("edge", u, v)
			}
			if unpublish {
				r.fwd.Store(nil)
			}
			r.Successors(syms[(i*31)%len(syms)])
		}
	}
	b.Run("incremental", func(b *testing.B) { churn(b, false) })
	b.Run("fullRebuild", func(b *testing.B) { churn(b, true) })
}

// BenchmarkKeys prices what the optimizer counts of a built relation of
// 1M random edges over 500k keys: its tuple count and its key count in
// each direction, one pass over each CSR offset array.
func BenchmarkKeys(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const keys, edges = 500_000, 1_000_000
	pairs := make([]symtab.Sym, 2*edges)
	for i := range pairs {
		pairs[i] = symtab.Sym(rng.Intn(keys))
	}
	r, err := NewStore(symtab.NewTable()).BuildBinary("edge", pairs)
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		_ = r.Len() + r.Keys(false) + r.Keys(true)
	}
}
