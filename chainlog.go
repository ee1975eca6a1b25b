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
// the general strategies — naive and seminaive bottom-up evaluation,
// magic sets and goal-directed QSQ nets — selectable per query, with a
// cost-based optimizer choosing among them by default. Each prepared
// template owns one route table (prepare.go): a strategy's route is
// compiled there once per rule epoch, from the rules the query depends
// on, and the optimizer, a pinned strategy, Explain and Materialize all
// take what it compiled — or the error that rejected it. The
// shape-restricted methods of the paper's comparison table (counting,
// reverse counting, Henschen–Naqvi, the Hunt-Szymanski-Ullman
// preconstruction) are not strategies: they live under internal/paper
// and are run by cmd/benchtables and the benchmarks only.
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
//   - the fact epoch moves on Assert, Retract, AssertBatch and Apply.
//     Compiled plans survive: on its next Run a Prepared merely
//     refreshes its pre-resolved relation pointers, and the extensional
//     store absorbs the change as an incremental CSR overlay instead of
//     rebuilding its adjacency.
//
// Facts can therefore churn at traffic rates — the hot serving path
// after a single Assert or Retract performs no parsing, no equation
// transformation and no automaton compilation.
package chainlog

import (
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
	"chainlog/internal/stats"
	"chainlog/internal/symtab"
)

// DB holds a Datalog program (the intensional database) and a fact store
// (the extensional database).
//
// A DB is safe for concurrent use: queries and prepared-plan runs take a
// shared read lock, mutations take the exclusive write lock.
type DB struct {
	// mu guards prog and store structure. Readers (queries, plan runs,
	// compilation) share it; writers (LoadProgram, Assert, SetStore)
	// hold it exclusively.
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

	// analysisMu guards the memoized Section 2 classification, which
	// depends only on the rules.
	analysisMu sync.Mutex
	info       *analysis.Info
	infoEpoch  uint64

	// domainMu guards the memoized active domain, which reads the facts.
	domainMu   sync.Mutex
	domain     []symtab.Sym
	domainRule uint64
	domainFact uint64

	// plans is the one template → plan memo: behind Query, QueryBatch,
	// Explain and PrepareCached.
	plans planCache

	// statsC caches the per-relation statistics snapshots behind the
	// cost-based optimizer, validated by relation version. reopts counts
	// plan re-optimizations across all prepared plans (the
	// chainlog_plan_reoptimizations_total metric).
	statsC stats.Collector
	reopts atomic.Uint64

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
	return &DB{st: st, store: edb.NewStore(st), prog: &ast.Program{}, ruleEpoch: 1, factEpoch: 1}
}

// bumpRuleEpoch invalidates every derived artifact; the caller must hold
// db.mu exclusively. The plan cache is emptied too, so plans compiled
// against a replaced program or store do not pin it in memory (a stale
// entry rebuilds from scratch anyway, so dropping it loses nothing).
// Prepared handles held by callers still self-heal on their next Run.
func (db *DB) bumpRuleEpoch() {
	db.ruleEpoch++
	db.plans.clear()
	// A store swap can re-bind relation names to different relations, so
	// version-validated statistics snapshots must go too.
	db.statsC.Invalidate()
}

// bumpFactEpoch records a fact-only mutation; the caller must hold db.mu
// exclusively. Cached plans are deliberately kept: a Prepared absorbs a
// fact-epoch movement by refreshing its relation pointers, not by
// recompiling, so the plan cache survives fact churn.
func (db *DB) bumpFactEpoch() {
	db.factEpoch++
}

// LoadProgram parses Datalog text and adds its rules to the intensional
// database and its facts to the extensional database. A load that adds
// rules moves the rule epoch (cached plans recompile); a facts-only load
// moves only the fact epoch, like Assert.
func (db *DB) LoadProgram(src string) error {
	res, err := parser.Parse(src, db.st)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.prog.Rules = append(db.prog.Rules, res.Program.Rules...)
	derived := db.prog.DerivedSet()
	for _, f := range res.Facts {
		if derived[f.Pred] {
			// Roll back the rules added above so a failed load leaves the
			// program unchanged.
			db.prog.Rules = db.prog.Rules[:len(db.prog.Rules)-len(res.Program.Rules)]
			return fmt.Errorf("chainlog: %s appears both as a fact and a rule head", f.Pred)
		}
	}
	var ins []ivm.Fact
	for _, f := range res.Facts {
		if db.store.Insert(f.Pred, f.Args...) {
			ins = append(ins, ivm.Fact{Pred: f.Pred, Args: f.Args})
		}
	}
	if len(res.Program.Rules) > 0 {
		db.bumpRuleEpoch()
		db.recomputeViewsLocked()
	} else {
		db.bumpFactEpoch()
		db.notifyViewsLocked(ins, nil)
	}
	return nil
}

// Assert inserts a single ground fact given as constant names and
// reports whether it was new. Asserting a fact that is already present
// is a no-op that leaves both epochs unchanged.
func (db *DB) Assert(pred string, args ...string) bool {
	syms := make([]symtab.Sym, len(args))
	for i, a := range args {
		syms[i] = db.st.Intern(a)
	}
	return db.AssertSyms(pred, syms...)
}

// AssertSyms inserts a ground fact of pre-interned symbols and reports
// whether it was new.
func (db *DB) AssertSyms(pred string, args ...symtab.Sym) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.store.Insert(pred, args...) {
		return false
	}
	db.bumpFactEpoch()
	db.notifyViewsLocked([]ivm.Fact{{Pred: pred, Args: slices.Clone(args)}}, nil)
	return true
}

// Retract deletes a single ground fact given as constant names and
// reports whether it was present. Retracting a fact that was never
// asserted — or retracting the same fact twice — is a no-op returning
// false, leaving both epochs unchanged.
func (db *DB) Retract(pred string, args ...string) bool {
	syms := make([]symtab.Sym, len(args))
	for i, a := range args {
		s, ok := db.st.Lookup(a)
		if !ok {
			return false // an unknown constant cannot be part of a stored fact
		}
		syms[i] = s
	}
	return db.RetractSyms(pred, syms...)
}

// RetractSyms deletes a ground fact of pre-interned symbols and reports
// whether it was present.
func (db *DB) RetractSyms(pred string, args ...symtab.Sym) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.store.Remove(pred, args...) {
		return false
	}
	db.bumpFactEpoch()
	db.notifyViewsLocked(nil, []ivm.Fact{{Pred: pred, Args: slices.Clone(args)}})
	return true
}

// Fact is one ground fact for the batched mutation APIs.
type Fact struct {
	Pred string
	Args []string
}

// AssertBatch inserts many facts under one exclusive lock acquisition
// and a single fact-epoch movement, returning the number of facts that
// were new. For mixed assert/retract batches use Apply.
func (db *DB) AssertBatch(facts []Fact) int {
	d := &Delta{}
	for _, f := range facts {
		d.Assert(f.Pred, f.Args...)
	}
	res := db.Apply(d)
	return res.Asserted
}

// Delta is an ordered batch of fact mutations, applied atomically by
// DB.Apply. Operations take effect in the order they were added, so a
// Delta that asserts and later retracts the same fact nets to absence.
type Delta struct {
	ops []deltaOp
}

type deltaOp struct {
	pred    string
	args    []string
	retract bool
}

// Assert queues an insertion. It returns the Delta for chaining.
func (d *Delta) Assert(pred string, args ...string) *Delta {
	d.ops = append(d.ops, deltaOp{pred: pred, args: args})
	return d
}

// Retract queues a deletion. It returns the Delta for chaining.
func (d *Delta) Retract(pred string, args ...string) *Delta {
	d.ops = append(d.ops, deltaOp{pred: pred, args: args, retract: true})
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
// untouched.
func (db *DB) Apply(d *Delta) ApplyResult {
	if d == nil || len(d.ops) == 0 {
		return ApplyResult{}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	res, ins, del := db.applyOpsLocked(d)
	if res.Asserted > 0 || res.Retracted > 0 {
		db.bumpFactEpoch()
		db.notifyViewsLocked(ins, del)
	}
	return res
}

// ApplyAt executes a Delta and forces the fact epoch to epoch — the
// replication replay entry point. A Delta already reflected in the
// database (epoch at or below the current fact epoch) is skipped
// entirely and applied=false is returned, which makes replaying a
// write-ahead log idempotent: a record may be delivered again after a
// crash, a reconnect or an overlapping snapshot without double-applying
// or moving the epoch twice. Unlike Apply, a non-skipped Delta always
// sets the epoch even when it nets to no change, because the epoch is
// the log position, not a change counter, and the follower must land
// exactly where the leader was.
func (db *DB) ApplyAt(d *Delta, epoch uint64) (ApplyResult, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if epoch <= db.factEpoch {
		return ApplyResult{}, false
	}
	var res ApplyResult
	var ins, del []ivm.Fact
	if d != nil {
		res, ins, del = db.applyOpsLocked(d)
	}
	db.factEpoch = epoch
	// Views learn the log position even from a net-no-change record, so
	// a replica's watch feed reports the same head as its primary's.
	db.notifyViewsLocked(ins, del)
	return res, true
}

// applyOpsLocked executes a Delta's ops in order and reports the NET
// effect: per-fact presence before the first op that changed it versus in
// the store once every op has run. A fact asserted and later retracted
// inside the batch (or vice versa) cancels out of the counts, the epoch
// decision and the view-maintenance delta alike — all three agree by
// construction. The caller must hold db.mu exclusively and is responsible
// for epoch movement and view notification.
func (db *DB) applyOpsLocked(d *Delta) (res ApplyResult, ins, del []ivm.Fact) {
	// An op that changes nothing — a duplicate assert, a retract of an
	// absent fact — leaves no trace; of those that do, the first per fact
	// (one table of touched tuples per predicate tells) says what was
	// there before the batch: the opposite of what the op made of it.
	touched := map[string]*edb.Table{}
	var first []ivm.Fact // first-touch order, for deterministic deltas
	var before []bool
	for _, op := range d.ops {
		syms := make([]symtab.Sym, len(op.args))
		known := true
		for i, a := range op.args {
			if op.retract {
				// An unknown constant cannot be part of a stored fact.
				syms[i], known = db.st.Lookup(a)
				if !known {
					break
				}
			} else {
				syms[i] = db.st.Intern(a)
			}
		}
		if !known {
			continue
		}
		var changed bool
		if op.retract {
			changed = db.store.Remove(op.pred, syms...)
		} else {
			changed = db.store.Insert(op.pred, syms...)
		}
		if !changed {
			continue
		}
		t := touched[op.pred]
		if t == nil {
			t = edb.NewTable(len(syms))
			touched[op.pred] = t
		}
		if t.Add(syms) {
			first = append(first, ivm.Fact{Pred: op.pred, Args: syms})
			before = append(before, op.retract)
		}
	}
	for i, f := range first {
		switch after := db.store.Relation(f.Pred).Contains(f.Args); {
		case after && !before[i]:
			res.Asserted++
			ins = append(ins, f)
		case !after && before[i]:
			res.Retracted++
			del = append(del, f)
		}
	}
	return res, ins, del
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
	db.mu.Lock()
	defer db.mu.Unlock()
	db.installStoreLocked(s, db.factEpoch)
}

// installStoreLocked is the one place the extensional store is swapped:
// SetStore and every snapshot restore end here. Replacing the store
// invalidates the relation pointers compiled into every plan, so it is
// a rule-epoch event even though no rule changed, and every live view
// is rebuilt over the new store. The caller holds db.mu exclusively.
func (db *DB) installStoreLocked(store *edb.Store, epoch uint64) {
	db.store = store
	db.bumpRuleEpoch()
	db.factEpoch = epoch
	db.recomputeViewsLocked()
}

// Invalidate discards every cached plan and memoized analysis, forcing
// recompilation on the next query. It is only needed after mutating the
// Store() directly; LoadProgram, Assert, Retract, Apply and SetStore
// invalidate automatically.
func (db *DB) Invalidate() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.bumpRuleEpoch()
	db.recomputeViewsLocked()
}

// Epoch returns the current combined mutation epoch. Two calls returning
// the same value bracket a span during which no program or fact mutation
// happened. Use Epochs to distinguish rule from fact movement.
func (db *DB) Epoch() uint64 {
	rule, fact := db.Epochs()
	return rule + fact
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

// Analysis returns the Section 2 classification of the current program.
func (db *DB) Analysis() *analysis.Info {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.analysisLocked()
}

// analysisLocked returns the memoized classification; the caller must
// hold db.mu (shared or exclusive).
func (db *DB) analysisLocked() *analysis.Info {
	db.analysisMu.Lock()
	defer db.analysisMu.Unlock()
	if db.info == nil || db.infoEpoch != db.ruleEpoch {
		db.info = analysis.Analyze(db.prog)
		db.infoEpoch = db.ruleEpoch
	}
	return db.info
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
