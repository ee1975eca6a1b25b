// Package chainlog is a deductive-database engine implementing the
// recursive-query evaluation strategy of Grahne, Sippu and
// Soisalon-Soininen, "Efficient Evaluation for a Subset of Recursive
// Queries" (PODS 1987; J. Logic Programming 1991).
//
// The engine evaluates regularly and linearly recursive Datalog queries
// by translating recursion into graph traversal:
//
//  1. a linear binary-chain program is transformed into a system of
//     equations over binary relations with operators ∪, · and *
//     (Lemma 1);
//  2. each equation compiles to a finite automaton M(e_p), and a query
//     p(a, Y) is evaluated by a demand-driven traversal of the
//     interpretation graph of the automaton hierarchy EM(p,i)
//     (Figures 4–5);
//  3. queries over n-ary linearly recursive predicates are reduced to
//     binary-chain queries over tuple terms, with the query's bindings
//     propagated into the transformed program so only relevant facts are
//     consulted (Section 4).
//
// Beside the paper's route the package evaluates any Datalog query by
// the general strategies — seminaive bottom-up evaluation and
// goal-directed QSQ nets — selectable per query, with a cost-based
// optimizer choosing among them by default. Each prepared
// template owns one route table (prepare.go): a strategy's route is
// compiled there once per rule epoch, from the rules the query depends
// on, and the optimizer, a pinned strategy, Explain and Materialize all
// take what it compiled — or the error that rejected it. The
// methods of the paper's comparison table (counting, reverse counting,
// Henschen–Naqvi, the Hunt-Szymanski-Ullman preconstruction, magic sets)
// are not strategies: they are run by cmd/benchtables and the benchmarks
// only. The magic-sets rewriting also compiles a view's maintenance
// program (see Prepared.Materialize).
//
// # Quick start
//
// The paper's central observation is that a query compiles to a fixed
// automaton hierarchy that is then driven by the bound constant. The API
// mirrors that: Prepare compiles a parameterized query template once, and
// the returned plan is run for any number of constants, from any number
// of goroutines:
//
//	db := chainlog.NewDB()
//	err := db.LoadProgram(`
//	    sg(X, Y) :- flat(X, Y).
//	    sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
//	    up(john, mary).  flat(mary, mary).  down(mary, ann).
//	`)
//	sg, err := db.Prepare("sg(?, Y)", chainlog.Options{})
//	ans, err := sg.Run("john")
//	// ans.Rows == [][]string{{"ann"}, ...}
//
// One-shot queries work too, and are internally routed through a plan
// cache keyed by (predicate, binding pattern, options), so repeating a
// query shape with different constants reuses the compiled plan:
//
//	ans, err := db.Query("sg(john, Y)")
//
// # Concurrency and live updates
//
// A DB guards its program and fact store with a readers-writer lock:
// any number of goroutines may Query / Run prepared plans concurrently,
// while mutations take the exclusive lock. Mutations are tracked by two
// epochs, because a compiled plan depends only on the rules while
// evaluation reads the facts:
//
//   - the rule epoch moves on LoadProgram (when rules were added),
//     SetStore and Invalidate. Cached plans are discarded and Prepared
//     handles recompile transparently on their next Run.
//   - the fact epoch moves on Assert, Retract and Apply that change a
//     fact. Compiled plans survive untouched: every run binds the
//     relations it reads, and the extensional store absorbs the change
//     as an incremental CSR overlay instead of rebuilding its adjacency.
//
// Facts can therefore churn at traffic rates — the hot serving path
// after a single Assert or Retract performs no parsing, no equation
// transformation and no automaton compilation.
package chainlog

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"chainlog/internal/analysis"
	"chainlog/internal/ast"
	"chainlog/internal/edb"
	"chainlog/internal/ivm"
	"chainlog/internal/parser"
	"chainlog/internal/snapshot"
	"chainlog/internal/symtab"
	"chainlog/internal/wal"
)

// DB holds a Datalog program (the intensional database) and a fact store
// (the extensional database).
//
// A DB is safe for concurrent use: queries and prepared-plan runs take a
// shared read lock, mutations take the exclusive write lock.
type DB struct {
	// wmu lets one writer in at a time, from its check to its settling, so
	// Land logs between its net and its apply. mu guards prog and store
	// structure. Readers (queries, plan runs, compilation) share it;
	// writers hold it exclusively, in writeLocked.
	wmu   sync.Mutex
	mu    sync.RWMutex
	st    *symtab.Table
	store *edb.Store
	prog  *ast.Program

	// ruleEpoch counts mutations that change the compiled world: rule
	// additions, store replacement, explicit invalidation. factEpoch
	// counts fact-only mutations (Assert/Retract and their batched
	// forms). Every derived artifact records the epoch(s) it was
	// computed at: plans recompile only when the rule epoch moves and
	// absorb fact-epoch movement in place.
	ruleEpoch uint64
	factEpoch uint64
	updates   chan struct{} // closed and replaced when write moves an epoch

	// domainMu guards the memoized active domain, which reads the facts.
	domainMu   sync.Mutex
	domain     []symtab.Sym
	domainRule uint64
	domainFact uint64

	// plans is the one template → plan memo: behind Query, QueryBatch,
	// Explain and PrepareCached.
	plans planCache

	// relStats caches the tuple and key counts the cost-based optimizer
	// prices, per relation, counted on demand and validated by relation
	// version. reopts counts plan re-optimizations across all prepared
	// plans (the chainlog_plan_reoptimizations_total metric).
	relStats relCache
	reopts   atomic.Uint64

	// viewMu guards the registry of materialized views. Mutators notify
	// views while holding db.mu exclusively, so the lock order is
	// db.mu -> viewMu -> (each view's own lock); view read methods never
	// take db.mu. The counters aggregate maintained-vs-recomputed work
	// across all views for metrics.
	viewMu         sync.Mutex
	views          map[*Materialized]struct{}
	viewMaintained atomic.Uint64
	viewRecomputed atomic.Uint64

	// snap, when the DB was built by OpenSnapshot, owns the mapped
	// snapshot backing the symbol table and store. Close releases it.
	snap *snapshot.File
}

// NewDB returns an empty database.
func NewDB() *DB {
	st := symtab.NewTable()
	return newDBAt(st, edb.NewStore(st), 1)
}

// change is what a checked write did, for write to settle.
type change struct {
	// rules: the rules or the store changed (a rule load, a store swap,
	// Invalidate), so everything compiled is stale and the views rebuild.
	rules bool
	// bulk: facts changed wholesale (an ingest); the views rebuild.
	bulk bool
	// at is the fact epoch to land on: a replayed record's log position or
	// a restored snapshot's. 0 moves the fact epoch on net change only.
	at uint64
	// ins and del are the net base delta the views absorb: facts present
	// afterwards that were absent before, and the reverse.
	ins, del []ivm.Fact
}

// write is the one write seam: every fact change, store swap and epoch
// move goes through it. It holds wmu, then db.mu exclusively while apply
// checks the write — changing nothing when it fails — and makes it, then
// settles what apply reports in one place. One epoch moves: the rule
// epoch on a rule event (a store swap also lands the fact epoch on its
// snapshot's), else the fact epoch, to c.at when set and otherwise by one
// on a net change. Updates' channel is closed, and the views absorb the
// net delta, or rebuild.
func (db *DB) write(apply func() (change, error)) error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	return db.writeLocked(apply)
}

// writeLocked is write for Land, which holds wmu.
func (db *DB) writeLocked(apply func() (change, error)) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	c, err := apply()
	if err != nil {
		return err
	}
	switch {
	case c.rules:
		// The plan cache is emptied so plans compiled against a replaced
		// program or store do not pin it in memory; Prepared handles held
		// by callers self-heal on their next Run. A store swap can re-bind
		// relation names, so the version-validated counts go too.
		db.ruleEpoch++
		db.plans.clear()
		db.relStats.clear()
	case c.at == 0 && !c.bulk && len(c.ins) == 0 && len(c.del) == 0:
		return nil // nothing changed
	case c.at == 0:
		// Cached plans are kept: no plan compiles facts in.
		db.factEpoch++
	}
	if c.at != 0 {
		db.factEpoch = c.at
	}
	close(db.updates)
	db.updates = make(chan struct{})
	db.viewMu.Lock()
	defer db.viewMu.Unlock()
	for m := range db.views {
		if c.rules || c.bulk {
			m.rebuild()
		} else {
			// A replayed record that nets to no change still tells the views
			// its log position, so a replica's watch feed reports the same
			// head as its primary's.
			m.applyBase(db.factEpoch, c.ins, c.del)
		}
	}
	return nil
}

// ErrArity is wrapped by the error of a load or a Delta holding a fact
// whose argument count differs from its relation's arity. Nothing is
// changed when it is returned. Match with errors.Is.
var ErrArity = errors.New("chainlog: arity mismatch")

// LoadProgram parses Datalog text and adds its rules to the intensional
// database and its facts to the extensional database. A load that adds
// rules moves the rule epoch (cached plans recompile); a facts-only load
// that adds a fact moves only the fact epoch, like Assert. A load that
// fails changes nothing.
//
// A binary relation the load creates is built, as ingestion builds one:
// laid out as CSR by two counting sorts and frozen until its first write
// (see edb.Store.BuildBinary) — unless its offset arrays, sized by its
// largest symbol, would outweigh the table (edb.CSRPays). Facts of an
// existing relation, and of an n-ary one, are inserted one at a time.
func (db *DB) LoadProgram(src string) error {
	res, err := parser.ParseDeferred(src, db.st)
	if err != nil {
		return err
	}
	return db.write(func() (c change, err error) {
		derived := db.prog.DerivedSet()
		for _, r := range res.Program.Rules {
			derived[r.Head.Pred] = true
		}
		// Parse gave every fact of a predicate one arity.
		for _, col := range res.Columns {
			if derived[col.Pred] {
				return c, fmt.Errorf("chainlog: %s appears both as a fact and a rule head", col.Pred)
			}
			if r := db.store.Relation(col.Pred); r != nil && r.Arity() != col.Arity {
				return c, fmt.Errorf("%w: fact %s has %d argument(s), but %s has arity %d", ErrArity, col.Pred, col.Arity, col.Pred, r.Arity())
			}
		}
		// The load stands: the names the table lacked are interned now, as
		// Parse would have interned them. Only a facts-only load hands the
		// views its facts; a rule load rebuilds them.
		res.Intern(db.st)
		db.prog.Rules = append(db.prog.Rules, res.Program.Rules...)
		c.rules = len(res.Program.Rules) > 0
		for i := range res.Columns {
			col := &res.Columns[i]
			if col.Arity == 2 && db.store.Relation(col.Pred) == nil && edb.CSRPays(col.Count, slices.Max(col.Args)) {
				// The relation is new, so the build cannot fail, and all
				// of its facts are new.
				r, _ := db.store.BuildBinary(col.Pred, col.Args)
				if !c.rules {
					flat := make([]symtab.Sym, 0, 2*r.Len())
					r.Each(func(t []symtab.Sym) {
						flat = append(flat, t...)
						c.ins = append(c.ins, ivm.Fact{Pred: col.Pred, Args: flat[len(flat)-2 : len(flat) : len(flat)]})
					})
				}
				continue
			}
			for j := range col.Count {
				if args := col.Fact(j); db.store.Insert(col.Pred, args...) && !c.rules {
					c.ins = append(c.ins, ivm.Fact{Pred: col.Pred, Args: args})
				}
			}
		}
		return c, nil
	})
}

// Assert inserts one ground fact, as a one-op Delta, and reports whether
// it was new. A fact already present is a no-op that leaves both epochs
// unchanged; one of the wrong arity is an ErrArity error, as in Apply.
func (db *DB) Assert(pred string, args ...string) (bool, error) {
	res, err := db.Apply((&Delta{}).Assert(pred, args...))
	return res.Asserted > 0, err
}

// Retract deletes one ground fact, as a one-op Delta, and reports whether
// it was present. Retracting a fact that is not stored — an unknown
// constant or a wrong arity included — is a no-op returning false.
func (db *DB) Retract(pred string, args ...string) (bool, error) {
	res, err := db.Apply((&Delta{}).Retract(pred, args...))
	return res.Retracted > 0, err
}

// Delta is an ordered batch of fact mutations, applied atomically by
// DB.Apply. Operations take effect in the order they were added, so a
// Delta that asserts and later retracts the same fact nets to absence.
type Delta struct {
	ops []wal.Op
}

// DeltaOf returns the Delta of a log record's ops, which it shares.
func DeltaOf(ops []wal.Op) *Delta { return &Delta{ops: ops} }

// Assert queues an insertion. It returns the Delta for chaining.
func (d *Delta) Assert(pred string, args ...string) *Delta {
	d.ops = append(d.ops, wal.Op{Pred: pred, Args: args})
	return d
}

// Retract queues a deletion. It returns the Delta for chaining.
func (d *Delta) Retract(pred string, args ...string) *Delta {
	d.ops = append(d.ops, wal.Op{Pred: pred, Args: args, Retract: true})
	return d
}

// Len returns the number of queued operations.
func (d *Delta) Len() int { return len(d.ops) }

// ApplyResult reports the net effect of a Delta: what the database
// contains afterwards versus before, not the per-operation traffic.
type ApplyResult struct {
	// Asserted counts facts present after the Delta that were absent
	// before; Retracted counts facts absent after that were present
	// before. Operations that cancel within the batch — a fact asserted
	// and later retracted, or retracted and re-asserted — contribute to
	// neither, exactly as no-op operations (duplicate asserts, retracts
	// of absent facts) never did.
	Asserted, Retracted int
}

// Apply executes a Delta under one exclusive lock acquisition. The fact
// epoch moves once — at most — for the whole batch, so readers observe
// the delta atomically and prepared plans refresh a single time however
// many facts changed. A Delta that nets to no change leaves the epochs
// untouched. A Delta asserting a fact of the wrong arity fails whole,
// with an ErrArity error, before anything changes. It is Land(d, 0, nil).
func (db *DB) Apply(d *Delta) (ApplyResult, error) {
	res, _, err := db.Land(d, 0, nil)
	return res, err
}

// ApplyAt lands a Delta at log position epoch through Land, with no
// log — the replication replay entry point. A Delta at or below the fact
// epoch is skipped and applied=false is returned, so replaying a
// write-ahead log is idempotent. One above it always sets the epoch, even
// when it nets to no change, because the epoch is the log position, not a
// change counter. A Delta Apply would refuse is an error here too, with
// nothing applied, so a follower stops on a record it cannot apply.
func (db *DB) ApplyAt(d *Delta, epoch uint64) (ApplyResult, bool, error) {
	res, at, err := db.Land(d, max(epoch, 1), nil) // 0 is skipped: no fact epoch is below 1
	if err != nil {
		err = fmt.Errorf("record at epoch %d: %w", epoch, err)
	}
	return res, at != 0, err
}

// Land is the one way a Delta reaches the store, and lets one writer in
// at a time. It nets d once under the read lock, interning nothing; calls
// log with the epoch d lands at, holding the lock in neither mode, so
// queries run on through a log's fsync and none sees the write; then
// applies that net under the write lock, interning the constants of the
// facts it adds. epoch 0 is the next fact epoch, taken only on a net
// change; any other is a log position, skipped at or below the fact epoch
// and taken above it even when d nets to nothing. A refused Delta, and one
// whose log fails, change nothing. log may be nil; it must not write to
// the DB, since a write waits for Land. Land returns d's net and the epoch
// it landed at, 0 when it landed nothing.
func (db *DB) Land(d *Delta, epoch uint64, log func(epoch uint64) error) (res ApplyResult, at uint64, err error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	var c change
	var fresh []string
	db.mu.RLock()
	cur := db.factEpoch
	if d != nil && (epoch == 0 || epoch > cur) {
		c, fresh, err = db.netLocked(d)
	}
	db.mu.RUnlock()
	res = ApplyResult{Asserted: len(c.ins), Retracted: len(c.del)}
	switch {
	case err != nil:
		return ApplyResult{}, 0, err
	case epoch == 0 && res == (ApplyResult{}), epoch != 0 && epoch <= cur:
		return res, 0, nil
	case epoch == 0:
		epoch = cur + 1
	}
	if log != nil {
		if err := log(epoch); err != nil {
			return ApplyResult{}, 0, err
		}
	}
	c.at = epoch
	return res, epoch, db.writeLocked(func() (change, error) {
		// Intern the fresh names of the facts that land, in the order
		// they first name them; at[j] is fresh[j]'s place in names, plus one.
		at, names := make([]int, len(fresh)), []string(nil)
		for _, f := range c.ins {
			for _, s := range f.Args {
				if s < 0 && at[-s-1] == 0 {
					names = append(names, fresh[-s-1])
					at[-s-1] = len(names)
				}
			}
		}
		syms := db.st.InternAll(names)
		for _, f := range c.ins {
			for i, s := range f.Args {
				if s < 0 {
					f.Args[i] = syms[at[-s-1]-1]
				}
			}
			db.store.Insert(f.Pred, f.Args...)
		}
		for _, f := range c.del {
			db.store.Remove(f.Pred, f.Args...)
		}
		return c, nil
	})
}

// netLocked is the one definition of what a Delta nets to: it runs the
// ops in order against the store, changing nothing, and returns the facts
// stored after them that were absent before (c.ins) and the reverse
// (c.del), in the order the ops first change them. An op that changes
// nothing leaves no trace, and a fact asserted and later retracted inside
// the batch (or the reverse) cancels out. A constant the symbol table
// lacks stands as a local id, -i for fresh[i-1], as parser.ParseDeferred
// gives one. An assert whose argument count differs from its relation's
// arity (or, for a relation the Delta creates, from its first assert) is
// an ErrArity error. The caller holds db.mu; Land is its one caller.
func (db *DB) netLocked(d *Delta) (c change, fresh []string, err error) {
	// touched holds, per predicate, each fact an op changed, once: slot k
	// of its table is facts[at[k]], whose was and is say whether it is
	// stored before the Delta and after the ops run so far.
	type fact struct {
		ivm.Fact
		was, is bool
	}
	type rows struct {
		t  *edb.Table
		at []int
	}
	var facts []fact
	touched, created, local := map[string]*rows{}, map[string]int{}, map[string]symtab.Sym{}
ops:
	for k, op := range d.ops {
		want, ok := created[op.Pred]
		if r := db.store.Relation(op.Pred); r != nil {
			want, ok = r.Arity(), true
		}
		switch {
		case op.Retract && (!ok || len(op.Args) != want):
			continue // the retract matches no fact
		case !ok:
			created[op.Pred] = len(op.Args)
		case len(op.Args) != want:
			return c, nil, fmt.Errorf("%w: op %d asserts %s with %d argument(s), but %s has arity %d", ErrArity, k, op.Pred, len(op.Args), op.Pred, want)
		}
		syms := make([]symtab.Sym, len(op.Args))
		for i, a := range op.Args {
			s, ok := db.st.Lookup(a)
			if !ok {
				if s, ok = local[a]; !ok {
					if op.Retract {
						continue ops // an unknown constant is part of no fact
					}
					fresh = append(fresh, a)
					s = symtab.Sym(-len(fresh))
					local[a] = s
				}
			}
			syms[i] = s
		}
		r, i := touched[op.Pred], -1
		if r != nil {
			if slot := r.t.Find(syms); slot >= 0 {
				i = r.at[slot]
			}
		}
		present := i >= 0 && facts[i].is
		if i < 0 {
			present = db.store.Relation(op.Pred).Contains(syms) // false on a local id
		}
		if present != op.Retract {
			continue // the op changes nothing
		}
		if i < 0 {
			if r == nil {
				r = &rows{t: edb.NewTable(len(syms))}
				touched[op.Pred] = r
			}
			r.t.Add(syms)
			i = len(facts)
			r.at = append(r.at, i)
			facts = append(facts, fact{Fact: ivm.Fact{Pred: op.Pred, Args: syms}, was: present})
		}
		facts[i].is = !op.Retract
	}
	for _, f := range facts {
		switch {
		case f.is && !f.was:
			c.ins = append(c.ins, f.Fact)
		case f.was && !f.is:
			c.del = append(c.del, f.Fact)
		}
	}
	return c, fresh, nil
}

// Sym is an interned constant symbol — an alias of the internal dense
// symbol type, exported so callers outside this module can name it in
// RunSymsFunc callbacks and pre-interned argument slices.
type Sym = symtab.Sym

// Intern returns the interned symbol for a constant name.
func (db *DB) Intern(name string) symtab.Sym { return db.st.Intern(name) }

// Name renders an interned symbol.
func (db *DB) Name(s symtab.Sym) string { return db.st.Name(s) }

// SymTab exposes the symbol table (shared with the store).
func (db *DB) SymTab() *symtab.Table { return db.st }

// Store exposes the extensional store (for workload generators and
// benchmarks that construct facts directly). Mutating the store directly
// bypasses the DB's locking and plan invalidation; call Invalidate — or
// use SetStore — afterwards if queries may already have run.
func (db *DB) Store() *edb.Store {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.store
}

// SetStore replaces the extensional store. The store must share the DB's
// symbol table.
func (db *DB) SetStore(s *edb.Store) {
	if s.SymTab() != db.st {
		panic("chainlog: store does not share the DB symbol table")
	}
	db.installStore(s, 0)
}

// installStore is the one place the extensional store is swapped:
// SetStore and every snapshot restore end here. Replacing the store
// invalidates the store every chain engine was compiled over, so it is
// a rule-epoch event even though no rule changed, and every live view
// is rebuilt over the new store. The fact epoch lands on epoch; 0 keeps
// it.
func (db *DB) installStore(store *edb.Store, epoch uint64) {
	_ = db.write(func() (change, error) { // a swap checks nothing: it cannot fail
		db.store = store
		return change{rules: true, at: epoch}, nil
	})
}

// Invalidate discards every cached plan and memoized analysis, forcing
// recompilation on the next query. It is only needed after mutating the
// Store() directly; LoadProgram, Assert, Retract, Apply and SetStore
// invalidate automatically.
func (db *DB) Invalidate() {
	_ = db.write(func() (change, error) { return change{rules: true}, nil }) // cannot fail
}

// Epochs returns the rule and fact epochs. The rule epoch moves when the
// compiled world changes (rules added, store replaced, Invalidate); the
// fact epoch moves on fact-only mutations, which prepared plans absorb
// without recompiling.
func (db *DB) Epochs() (rule, fact uint64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.ruleEpoch, db.factEpoch
}

// FactEpoch returns the fact epoch alone. In a replicated deployment it
// is the log sequence number: the primary stamps it on every applied
// Delta, replicas converge to it, and chainlogd exposes it both as the
// X-Chainlog-Epoch response header and a /metrics gauge.
func (db *DB) FactEpoch() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.factEpoch
}

// Updates returns a channel closed the next time write moves an epoch (a
// record ApplyAt lands moves it even when it nets to nothing). Grab it
// before reading the epoch, so a move in between is not missed, and
// again after each wake.
func (db *DB) Updates() <-chan struct{} {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.updates
}

// RuleEpoch returns the rule epoch alone.
func (db *DB) RuleEpoch() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.ruleEpoch
}

// Program exposes the parsed intensional database. The returned program
// is the DB's live copy: reading it concurrently with LoadProgram is a
// data race, so callers sharing the DB across goroutines must not hold
// it across mutations.
func (db *DB) Program() *ast.Program { return db.prog }

// Analysis returns the Section 2 classification of the current program,
// computed on each call.
func (db *DB) Analysis() *analysis.Info {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return analysis.Analyze(db.prog)
}

// Classify summarizes the program classes of Section 2 for diagnostics.
type Classification struct {
	Recursive         bool
	Linear            bool
	BinaryChain       bool
	Regular           bool
	SingleDerivedBody bool
}

// Classify reports which program classes the current program falls into.
func (db *DB) Classify() Classification {
	info := db.Analysis()
	c := Classification{
		Recursive:         info.RecursiveProgram(),
		Linear:            info.LinearProgram(),
		BinaryChain:       info.BinaryChainProgram(),
		SingleDerivedBody: info.SingleDerivedBody(),
	}
	if c.BinaryChain {
		c.Regular = info.RegularProgram()
	}
	return c
}

// ActiveDomain returns the sorted set of constants occurring in the
// extensional database. The scan is memoized and invalidated by any
// mutation epoch movement (facts change the domain, and a store
// replacement does too), so ff queries do not rescan every relation on
// each call. The returned slice is the caller's to mutate.
func (db *DB) ActiveDomain() []symtab.Sym {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]symtab.Sym(nil), db.activeDomainLocked()...)
}

// activeDomainLocked returns the memoized active domain; the caller must
// hold db.mu (shared or exclusive).
func (db *DB) activeDomainLocked() []symtab.Sym {
	db.domainMu.Lock()
	defer db.domainMu.Unlock()
	if db.domain != nil && db.domainRule == db.ruleEpoch && db.domainFact == db.factEpoch {
		return db.domain
	}
	set := make(map[symtab.Sym]bool)
	for _, name := range db.store.Relations() {
		db.store.Relation(name).Each(func(tuple []symtab.Sym) {
			for _, s := range tuple {
				set[s] = true
			}
		})
	}
	out := make([]symtab.Sym, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	slices.Sort(out)
	db.domain = out
	db.domainRule = db.ruleEpoch
	db.domainFact = db.factEpoch
	return out
}
