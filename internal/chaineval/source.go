package chaineval

import (
	"chainlog/internal/edb"
	"chainlog/internal/symtab"
)

// StoreSource adapts an extensional store to the Source interface. An
// engine over a StoreSource does not probe through it: compile numbers
// the base predicates its automata read, each run resolves those names
// to views of the store's relations once (Engine.bind) and probes their
// CSRs through them — the hot path then performs no string hashing and
// no call — tallying each probe itself. A name the store has no relation
// for binds a view of none and, as through Successors and Predecessors
// here, finds nothing and tallies nothing. Every predicate of any other Source (the Section 4
// transformation's virtual join relations) keeps the by-name
// Successors/Predecessors path, which tallies into the same counter.
type StoreSource struct {
	Store *edb.Store
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

// FuncSource builds a Source from closures; used by tests.
type FuncSource struct {
	Succ func(pred string, u symtab.Sym) []symtab.Sym
	Pred func(pred string, v symtab.Sym) []symtab.Sym
}

// Successors invokes the Succ closure, counting it as one probe.
func (f FuncSource) Successors(pred string, u symtab.Sym, work *edb.Counters) []symtab.Sym {
	return tally(work, f.Succ(pred, u))
}

// Predecessors invokes the Pred closure, counting it as one probe.
func (f FuncSource) Predecessors(pred string, v symtab.Sym, work *edb.Counters) []symtab.Sym {
	return tally(work, f.Pred(pred, v))
}
