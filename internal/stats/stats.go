// Package stats maintains per-relation statistics for the cost-based
// plan optimizer: cardinalities, out/in-degree histograms read straight
// off the CSR offset arrays, and per-column distinct counts. Collection
// is nearly free — a degree histogram is one pass over an offset array
// the evaluator keeps current anyway — and results are cached per
// relation version, so a long-lived server recomputes only after the
// relation actually changed.
package stats

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"

	"chainlog/internal/edb"
	"chainlog/internal/symtab"
)

// HistBuckets is the number of log2 degree buckets: bucket i counts
// keys whose degree d satisfies floor(log2(d)) == i, so bucket 0 is
// degree 1, bucket 1 degrees 2–3, and so on. 32 buckets cover any
// degree that fits an int32 neighbor count.
const HistBuckets = 32

// Hist is a logarithmic degree histogram.
type Hist struct {
	Buckets [HistBuckets]int64
}

// Add records one key of the given degree (non-positive ignored).
func (h *Hist) Add(degree int) {
	if degree <= 0 {
		return
	}
	b := bits.Len(uint(degree)) - 1
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.Buckets[b]++
}

// String renders the non-empty buckets compactly, e.g. "1:5 2-3:2".
func (h *Hist) String() string {
	var b strings.Builder
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		lo := 1 << i
		hi := 1<<(i+1) - 1
		if lo == hi {
			fmt.Fprintf(&b, "%d:%d", lo, c)
		} else {
			fmt.Fprintf(&b, "%d-%d:%d", lo, hi, c)
		}
	}
	if b.Len() == 0 {
		return "empty"
	}
	return b.String()
}

// RelStats is one relation's statistics snapshot.
type RelStats struct {
	Name    string
	Arity   int
	Version uint64
	// Tuples is the live tuple count.
	Tuples int
	// Binary relations only: distinct keys with at least one out/in
	// neighbor, the maximum degrees, and the log2 degree histograms.
	OutKeys, InKeys int
	MaxOut, MaxIn   int
	OutHist, InHist Hist
	// Distinct holds the per-column distinct counts. For binary
	// relations it is derived from the degree walks (free); for other
	// arities it is a hashing pass per column.
	Distinct []int
}

// Collect computes a fresh snapshot for a relation. Binary relations
// get their degree histograms from the CSR offset arrays (forcing the
// same refresh the next probe would); wider relations get tuple and
// per-column distinct counts only. A nil relation yields an empty
// snapshot, the correct estimate for a predicate with no facts yet.
func Collect(r *edb.Relation) *RelStats {
	s := &RelStats{}
	if r == nil {
		return s
	}
	s.Name = r.Name()
	s.Arity = r.Arity()
	s.Version = r.Version()
	s.Tuples = r.Len()
	if s.Arity == 2 {
		r.DegreeEach(false, func(_ symtab.Sym, d int) {
			s.OutKeys++
			if d > s.MaxOut {
				s.MaxOut = d
			}
			s.OutHist.Add(d)
		})
		r.DegreeEach(true, func(_ symtab.Sym, d int) {
			s.InKeys++
			if d > s.MaxIn {
				s.MaxIn = d
			}
			s.InHist.Add(d)
		})
		s.Distinct = []int{s.OutKeys, s.InKeys}
		return s
	}
	s.Distinct = make([]int, s.Arity)
	for c := 0; c < s.Arity; c++ {
		s.Distinct[c] = r.ColumnDistinct(c)
	}
	return s
}

// Collector caches RelStats per relation, keyed by name and validated
// by the relation's mutation version: a hit after fact churn recomputes
// exactly the relations that changed. Safe for concurrent use.
type Collector struct {
	mu    sync.Mutex
	cache map[string]*RelStats
}

// Stats returns the (possibly cached) statistics snapshot for r.
// Returned snapshots are shared and must be treated as immutable.
func (c *Collector) Stats(r *edb.Relation) *RelStats {
	if r == nil {
		return &RelStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.cache[r.Name()]; ok && s.Version == r.Version() && s.Tuples == r.Len() {
		return s
	}
	s := Collect(r)
	if c.cache == nil {
		c.cache = make(map[string]*RelStats)
	}
	c.cache[r.Name()] = s
	return s
}

// Invalidate drops every cached snapshot (e.g. after a store swap,
// where relation names may now denote different relations).
func (c *Collector) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.cache)
}
