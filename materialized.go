package chainlog

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"chainlog/internal/ast"
	"chainlog/internal/ivm"
	"chainlog/internal/symtab"
)

// maxChangeLog bounds the per-view delta ring: a subscriber further
// behind than this many change sets must reset from a full snapshot.
const maxChangeLog = 256

// viewGenSeq issues process-unique view generations: a cursor taken
// against one view instance must never validate against a different
// instance (or a recomputed state) that happens to share its epoch.
var viewGenSeq atomic.Uint64

// ChangeSet is one epoch's worth of answer changes to a Materialized
// view: the rows that appeared and disappeared when the mutation
// stamped with Epoch was applied. Rows use the same rendering and
// ordering domain as Answer.Rows.
type ChangeSet struct {
	Epoch   uint64     `json:"epoch"`
	Added   [][]string `json:"added,omitempty"`
	Removed [][]string `json:"removed,omitempty"`
}

// MaterializedStats reports how a view has been kept current.
type MaterializedStats struct {
	// Maintained counts mutations absorbed incrementally; Recomputed
	// counts full recomputations (the initial build, rule-epoch events,
	// and fallback from a damaged incremental state). Repairs counts
	// DRed overdelete/rederive repairs within the maintained passes.
	Maintained, Recomputed, Repairs uint64
	// Rows is the current answer cardinality; Facts the number of
	// derived facts materialized to support it.
	Rows, Facts int
}

// Materialized is a live answer set: the result of a prepared query
// kept current by differential maintenance as the database mutates.
// Obtain one with Prepared.Materialize; Close it when done.
//
// All methods are safe for concurrent use. Maintenance happens
// synchronously inside the DB's mutation critical section, so a
// Snapshot taken after a mutation returns always reflects it.
type Materialized struct {
	db   *DB
	tmpl ast.Query
	args []symtab.Sym
	vars []string // the free variables, as the Prepared it came from names them

	mu    sync.Mutex
	view  *ivm.View    // holds the answer: the tuples of its query predicate
	proj  projection   // query-predicate tuples onto answer rows
	bound []symtab.Sym // the query's bound arguments, as proj checks them

	sorted   [][]string // the answer rendered and sorted, on demand; nil when dirty
	epoch    uint64
	gen      uint64 // process-unique, reissued on recompute; epoch cursors are per-gen
	log      []ChangeSet
	logFloor uint64 // resume possible from epochs >= logFloor
	updates  chan struct{}
	closed   bool

	maintained, recomputed uint64
}

// Materialize builds a live answer set for the prepared query bound to
// args, registering it for differential maintenance: every subsequent
// Assert/Retract/Apply updates it inside the mutation's critical
// section. Insertions run a delta-seeded semi-naive pass and deletions
// per-answer support counting with a recompute fallback, so churn far
// from the answer costs near nothing. Close the view to stop paying
// for maintenance.
//
// Unlike Run, Materialize interns its arguments, on purpose: a view is a
// standing subscription, so a constant no fact holds yet keeps the symbol
// a later write of it will use, and the view sees that write.
func (p *Prepared) Materialize(args ...string) (*Materialized, error) {
	if len(args) != p.nparams {
		return nil, fmt.Errorf("chainlog: prepared query %s expects %d parameters, got %d", p, p.nparams, len(args))
	}
	db := p.db
	syms := make([]symtab.Sym, len(args))
	for i, a := range args {
		syms[i] = db.st.Intern(a)
	}
	m := &Materialized{db: db, tmpl: p.tmpl, args: syms, vars: p.vars, gen: viewGenSeq.Add(1), updates: make(chan struct{})}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if err := m.buildLocked(); err != nil {
		return nil, err
	}
	// Register before releasing db.mu: mutators notify views while
	// holding it exclusively, so no delta can slip between the build
	// and the registration.
	db.viewMu.Lock()
	if db.views == nil {
		db.views = make(map[*Materialized]struct{})
	}
	db.views[m] = struct{}{}
	db.viewMu.Unlock()
	return m, nil
}

// buildLocked (re)constructs the maintenance machinery from the DB's
// current program and store. The caller holds db.mu (shared or
// exclusive) and m.mu if the view is already published.
func (m *Materialized) buildLocked() error {
	db := m.db
	// The maintenance program: the magic route of the template with the
	// view's constants in its holes — so the rewriting's seed fact carries
	// them — when it compiles (maintenance then works on the query's
	// relevant cone); the plain program slice when it does not — which for
	// a base-predicate query is the empty program.
	t := db.newRoutes(substituteArgs(m.tmpl, m.args), Options{})
	prog, pred := t.sub, m.tmpl.Pred
	if rw, err := t.magicForm(); err == nil {
		prog, pred = rw.Program, rw.QueryPred
	}
	view, err := ivm.NewView(prog, pred, db.store, db.st)
	if err != nil {
		return err
	}
	m.view = view
	m.proj, m.bound = t.proj, newBoundVec(m.tmpl).fill(nil, m.args)
	m.sorted = nil
	m.epoch = db.factEpoch
	return nil
}

// projectRows maps query-predicate tuples to answer rows. The projection
// is injective, so row-level deltas are exactly the projected
// tuple-level deltas.
func (m *Materialized) projectRows(tuples [][]symtab.Sym) [][]string {
	return m.db.render(project(&m.proj, tuples, m.bound))
}

// applyBase folds one net base-fact delta into the view. Called by
// DB.write, with db.mu held exclusively.
func (m *Materialized) applyBase(epoch uint64, ins, del []ivm.Fact) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	if len(ins) == 0 && len(del) == 0 {
		m.epoch = epoch
		return
	}
	added, removed, err := m.view.ApplyBase(ins, del)
	if err != nil {
		// Support counting underflowed: fall back to a full recompute.
		m.recomputeLocked(epoch)
		return
	}
	m.maintained++
	m.db.viewMaintained.Add(1)
	m.commitLocked(epoch, added, removed)
}

// rebuild reconstructs the view after a rule-epoch event (rules added,
// store replaced, snapshot restored, bulk ingest). Called by DB.write,
// with db.mu held exclusively.
func (m *Materialized) rebuild() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.recomputeLocked(m.db.factEpoch)
}

// recomputeLocked rebuilds the view from scratch and resets the resume
// horizon — subscribers that were tailing the change log must take a
// fresh snapshot. Caller holds db.mu and m.mu.
func (m *Materialized) recomputeLocked(epoch uint64) {
	if err := m.buildLocked(); err != nil {
		// The program changed under the view in a way it cannot follow
		// (e.g. the predicate vanished); keep serving the last answer.
		return
	}
	m.recomputed++
	m.db.viewRecomputed.Add(1)
	m.epoch = epoch
	// A recompute is a discontinuity: rule-epoch events do not move the
	// fact epoch, so an epoch cursor alone cannot tell pre-recompute
	// state from post-recompute state. Issuing a fresh generation
	// invalidates every outstanding cursor and forces subscribers to
	// resynchronize from a fresh snapshot.
	m.gen = viewGenSeq.Add(1)
	m.log = nil
	m.logFloor = epoch
	m.broadcastLocked()
}

// commitLocked renders the view's net tuple delta, appends the change
// set to the ring and wakes subscribers. Caller holds m.mu.
func (m *Materialized) commitLocked(epoch uint64, addedT, removedT [][]symtab.Sym) {
	cs := ChangeSet{Epoch: epoch}
	if rows := m.projectRows(addedT); len(rows) > 0 {
		cs.Added = rows
	}
	if rows := m.projectRows(removedT); len(rows) > 0 {
		cs.Removed = rows
	}
	m.epoch = epoch
	if len(cs.Added) == 0 && len(cs.Removed) == 0 {
		return
	}
	sortRows(cs.Added)
	sortRows(cs.Removed)
	m.sorted = nil
	m.log = append(m.log, cs)
	if len(m.log) > maxChangeLog {
		drop := len(m.log) - maxChangeLog
		m.logFloor = m.log[drop-1].Epoch
		m.log = append([]ChangeSet(nil), m.log[drop:]...)
	}
	m.broadcastLocked()
}

// broadcastLocked wakes everything blocked on Updates. Caller holds
// m.mu.
func (m *Materialized) broadcastLocked() {
	close(m.updates)
	m.updates = make(chan struct{})
}

// Snapshot returns the current answer rows, sorted exactly as
// Prepared.Run sorts them, together with the fact epoch they reflect.
// Boolean queries (no free variables) report one zero-column row when
// the fact holds and no rows otherwise.
func (m *Materialized) Snapshot() ([][]string, uint64) {
	rows, epoch, _ := m.State()
	return rows, epoch
}

// rowsLocked returns the answer rows, rendering the view's tuples when
// they changed since the last call. The result is the cache: callers
// hand out copies. Caller holds m.mu.
func (m *Materialized) rowsLocked() [][]string {
	if m.sorted == nil {
		m.sorted = m.projectRows(m.view.Tuples())
		sortRows(m.sorted)
	}
	return m.sorted
}

// True reports, for boolean queries, whether the fact currently holds.
func (m *Materialized) True() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.rowsLocked()) > 0
}

// Vars names the query's free variables, in answer-column order.
func (m *Materialized) Vars() []string { return append([]string(nil), m.vars...) }

// Epoch returns the fact epoch of the last mutation the view absorbed.
func (m *Materialized) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// State returns the current answer rows (sorted as Snapshot sorts
// them), the fact epoch they reflect, and the view generation, all three
// read under one lock: a recompute between the rows and the generation
// would hand a subscriber the old rows under the new cursor for good.
// The (epoch, gen) pair is the resume cursor for Changes.
func (m *Materialized) State() (rows [][]string, epoch, gen uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.rowsLocked()), m.epoch, m.gen
}

// Changes returns the answer deltas for every mutation applied after
// epoch from, in epoch order. The cursor is the (epoch, gen) pair from
// State or a previous ChangeSet within the same generation: ok is
// false when gen is stale (a recompute discarded the log — rule-epoch
// events do not move the fact epoch, so the epoch alone cannot detect
// one) or when from predates the retained ring. Either way the caller
// must resynchronize with State and resume from its cursor.
func (m *Materialized) Changes(from, gen uint64) ([]ChangeSet, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if gen != m.gen || from < m.logFloor {
		return nil, false
	}
	var out []ChangeSet
	for _, cs := range m.log {
		if cs.Epoch > from {
			out = append(out, cs)
		}
	}
	return out, true
}

// Updates returns a channel closed on the next answer change; callers
// re-arm by calling Updates again after each wake (the same
// closed-and-replaced broadcast the replication feed uses).
func (m *Materialized) Updates() <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.updates
}

// Stats reports the view's maintenance counters.
func (m *Materialized) Stats() MaterializedStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	vs := m.view.Stats()
	return MaterializedStats{
		Maintained: m.maintained,
		Recomputed: m.recomputed,
		Repairs:    vs.Repairs,
		Rows:       len(m.rowsLocked()),
		Facts:      vs.Facts,
	}
}

// Closed reports whether Close has been called.
func (m *Materialized) Closed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Close deregisters the view: the DB stops maintaining it and anything
// blocked on Updates wakes. Snapshot keeps returning the final answer.
// Close is idempotent.
func (m *Materialized) Close() {
	m.db.viewMu.Lock()
	delete(m.db.views, m)
	m.db.viewMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	close(m.updates)
}

// ViewStats reports the aggregate maintained-vs-recomputed counters
// across all views this DB has ever maintained (the
// chainlog_view_maintained_total / chainlog_view_recomputed_total
// metrics).
func (db *DB) ViewStats() (maintained, recomputed uint64) {
	return db.viewMaintained.Load(), db.viewRecomputed.Load()
}

// Views returns the number of currently registered materialized views.
func (db *DB) Views() int {
	db.viewMu.Lock()
	defer db.viewMu.Unlock()
	return len(db.views)
}
