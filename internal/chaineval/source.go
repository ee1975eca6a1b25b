package chaineval

import (
	"chainlog/internal/edb"
	"chainlog/internal/symtab"
)

// SymBounder is an optional Source extension: SymBound returns an
// exclusive upper bound on the Sym values the source can produce (the
// symbol table's current size). The engine uses it to size its dense
// visited pages exactly; sources that cannot report a bound simply omit
// the method and pages grow on demand instead.
type SymBounder interface {
	SymBound() int
}

// RelationResolver is an optional Source extension: ResolveRelation
// returns the concrete extensional relation behind pred, or nil when the
// predicate is computed (e.g. the Section 4 transformation's virtual
// join relations) or not yet materialized. The engine resolves each base
// predicate once at automaton-annotation time and probes the returned
// relation through its raw (uncounted) adjacency accessors, batching the
// retrieval statistics per run — the hot path then performs no string
// hashing and no per-probe atomics. Predicates that resolve to nil keep
// the by-name Successors/Predecessors path, whose implementations count
// their own probes.
type RelationResolver interface {
	ResolveRelation(pred string) *edb.Relation
}

// StoreSource adapts an extensional store to the Source interface.
type StoreSource struct {
	Store *edb.Store
}

// ResolveRelation exposes the store's relation for direct adjacency
// probes (see RelationResolver).
func (s StoreSource) ResolveRelation(pred string) *edb.Relation {
	return s.Store.Relation(pred)
}

// Successors returns all v with pred(u, v) in the store.
func (s StoreSource) Successors(pred string, u symtab.Sym, work *edb.Counters) []symtab.Sym {
	if r := s.Store.Relation(pred); r != nil {
		return tally(work, r.Successors(u))
	}
	return nil
}

// Predecessors returns all u with pred(u, v) in the store.
func (s StoreSource) Predecessors(pred string, v symtab.Sym, work *edb.Counters) []symtab.Sym {
	if r := s.Store.Relation(pred); r != nil {
		return tally(work, r.Predecessors(v))
	}
	return nil
}

// tally adds one probe that returned vs to work.
func tally(work *edb.Counters, vs []symtab.Sym) []symtab.Sym {
	work.Lookups++
	work.Retrieved += int64(len(vs))
	return vs
}

// SymBound reports the store's symbol-table size for dense page sizing.
func (s StoreSource) SymBound() int {
	return s.Store.SymBound()
}

// FuncSource builds a Source from closures; used by tests and by virtual
// relation layers that fall back to a store.
type FuncSource struct {
	Succ func(pred string, u symtab.Sym) []symtab.Sym
	Pred func(pred string, v symtab.Sym) []symtab.Sym
	// Bound optionally reports the Sym upper bound (see SymBounder).
	Bound func() int
}

// Successors invokes the Succ closure, counting it as one probe.
func (f FuncSource) Successors(pred string, u symtab.Sym, work *edb.Counters) []symtab.Sym {
	return tally(work, f.Succ(pred, u))
}

// Predecessors invokes the Pred closure, counting it as one probe.
func (f FuncSource) Predecessors(pred string, v symtab.Sym, work *edb.Counters) []symtab.Sym {
	return tally(work, f.Pred(pred, v))
}

// SymBound invokes the Bound closure, or reports no bound when unset.
func (f FuncSource) SymBound() int {
	if f.Bound == nil {
		return 0
	}
	return f.Bound()
}
