// Package ivm incrementally maintains the derived facts of a Datalog
// program under base-fact insertions and deletions, the machinery behind
// Prepared.Materialize and chainlogd's /v1/watch subscriptions.
//
// The method is counting-based maintenance in the family of Bancilhon/
// Maier/Sagiv/Ullman's counting method (already used for query
// evaluation by internal/paper/counting), hardened for recursion:
//
//   - every derived fact carries a height — the semi-naive round that
//     first produced it — and a support count of its counted firings: a
//     rule firing is counted for its head exactly when every derived
//     body fact has strictly smaller height than the head. Counted
//     support is therefore well-founded: as long as no count reaches
//     zero, every fact remains derivable, so deletions that leave all
//     counts positive finish after a single decrement pass.
//   - a count reaching zero does not prove the fact dead (an alternative
//     derivation may exist through an uncounted, higher-height firing),
//     so zeroed facts enter a DRed-style local repair: overdeletion
//     cascades through the counted supports, then the overdeleted facts
//     are rederived against the surviving state and reinserted with
//     fresh heights. The repair touches only the affected cone; the
//     common case — churn far from the view — never runs it.
//   - insertions run a delta-seeded semi-naive pass. A round's
//     derivations are born one height above everything the round's joins
//     may read, so no firing of a round feeds another, each new firing is
//     enumerated exactly once and the counts stay exact. The initial
//     build is the same pass seeded by the rules without derived body
//     atoms.
//
// A derived fact is held once: as a row of its predicate's keyless
// edb.Table, with its height, its count and the mark of the overdeletion
// wave it is in kept in a slice parallel to the table's slots. A join
// reads a candidate's height by the slot the table's probe hands it, a
// firing finds its head's state by one probe of the table, and a delta —
// the facts a round derived, or an overdeletion wave — is a list of
// slots. Overdeleted rows are tombstoned, which keeps every slot valid
// for the rest of the pass; once a table's tombstones dominate it
// (edb.Table.Repack), the end of the pass squeezes them out and moves the
// state slice in step, so sustained churn through a view keeps its slot
// space within a constant factor of its live facts.
//
// A View owns a private copy of the base relations its rules consult.
// That copy lags the database by exactly the delta being applied, which
// is what lets the deletion pass enumerate lost firings over the
// pre-state and the insertion pass over the post-state using only
// exclusion filters — no store snapshotting per mutation.
//
// Rule firings are enumerated by bottomup's rule-body join (bottomup/
// join.go), each rule compiled once per way a pass enters it: unpinned,
// with the head bound, and with each body atom pinned to a delta tuple.
// The view supplies only the tuple source: its base and derived
// relations filtered by the pass's height bounds and skip sets, each
// derived tuple tagged with its height.
package ivm

import (
	"fmt"

	"chainlog/internal/ast"
	"chainlog/internal/bottomup"
	"chainlog/internal/edb"
	"chainlog/internal/symtab"
)

// Fact is one ground base fact of a net mutation delta.
type Fact struct {
	Pred string
	Args []symtab.Sym
}

// Stats reports the work a view has performed since construction.
type Stats struct {
	// Repairs counts DRed overdelete/rederive repairs — deletion passes
	// where some support count reached zero.
	Repairs uint64
	// Facts is the number of derived facts currently materialized.
	Facts int
}

// relation is one derived predicate of a view: its facts, and parallel to
// the table's slots each fact's maintenance state.
type relation struct {
	tab   *edb.Table
	state []factState
	// delta lists the slots a pass enters rules through — the facts the
	// last round derived, or an overdeletion wave — and next collects
	// those of the round in progress. Both are empty between passes.
	delta, next []int32
}

type factState struct {
	height int   // semi-naive round of (re)birth; counted bodies sit strictly below
	count  int32 // valid counted firings supporting the fact
	wave   bool  // in the overdeletion wave in progress, which ends by removing it
}

// View maintains the fixpoint of prog restricted to the facts relevant
// to queryPred. It is not safe for concurrent use; the owning
// chainlog.DB serializes maintenance under its write lock.
type View struct {
	prog      *ast.Program
	plans     []rulePlan // compiled bodies, parallel to prog.Rules
	join      *bottomup.Join
	basePreds map[string]bool
	queryPred string

	base *edb.Store           // private copy of consulted base relations
	der  map[string]*relation // derived facts, by predicate
	// query is der[queryPred] once the view is built: nil while the
	// initial fixpoint runs, whose facts are no answer delta, and for a
	// base queryPred.
	query     *relation
	maxHeight int
	damaged   bool

	// The enumeration in progress (enumerate), and its scratch.
	spec        enumSpec
	plan        *rulePlan
	body        *bottomup.Body
	emit        func(d *relation, head []symtab.Sym, maxDer int)
	frame, head []symtab.Sym
	src         bottomup.Source
	onFrame     func(frame []symtab.Sym, maxDer int)

	// added and removed hold the net answer delta of the ApplyBase in
	// progress, each nil until it has a row.
	added, removed *edb.Table

	stats Stats
}

// NewView builds a view of queryPred under prog, seeding the private
// base copy and the initial fixpoint from src. prog must already be
// sliced to the rules relevant to queryPred (including any magic
// rewrite); a base queryPred with no rules is also valid, in which case
// the view simply mirrors that relation.
func NewView(prog *ast.Program, queryPred string, src *edb.Store, st *symtab.Table) (*View, error) {
	arities, err := prog.Arities()
	if err != nil {
		return nil, err
	}
	v := &View{
		prog:      prog,
		plans:     compilePlans(prog),
		join:      bottomup.NewJoin(nil, st),
		basePreds: map[string]bool{},
		queryPred: queryPred,
		base:      edb.NewStore(st),
		der:       map[string]*relation{},
	}
	v.src, v.onFrame = v.candidates, v.project
	for ri, r := range prog.Rules {
		d := v.der[r.Head.Pred]
		if d == nil {
			d = &relation{tab: edb.NewTable(arities[r.Head.Pred])}
			v.der[r.Head.Pred] = d
		}
		v.plans[ri].head = d
	}
	for _, r := range prog.Rules {
		for _, l := range r.Body {
			if !l.IsBuiltin() && v.der[l.Pred] == nil {
				v.basePreds[l.Pred] = true
			}
		}
	}
	if v.der[queryPred] == nil {
		v.basePreds[queryPred] = true
	}
	for pred := range v.basePreds {
		src.Relation(pred).Each(func(tuple []symtab.Sym) {
			v.base.Insert(pred, tuple...)
		})
	}

	// Round 1: rules whose bodies hold no derived atom (including
	// empty-body magic seed rules). Rounds 2..: semi-naive over the
	// previous round's delta, heights assigned by round.
	for ri, r := range prog.Rules {
		if !v.hasDerivedAtom(r) {
			v.enumerate(ri, enumSpec{pin: -1}, func(d *relation, head []symtab.Sym, maxDer int) {
				v.credit(d, head, maxDer, 1)
			})
		}
	}
	v.maxHeight = 1
	v.closeOver()
	v.query = v.der[queryPred]
	return v, nil
}

// ApplyBase folds one net base mutation into the view: deletions first
// (decrement, overdelete, rederive), then insertions (delta-seeded
// semi-naive). It returns the net tuple changes of the query predicate.
// A non-nil error means the incremental state is no longer trustworthy
// and the caller must build a new view.
func (v *View) ApplyBase(inserted, deleted []Fact) (added, removed [][]symtab.Sym, err error) {
	if v.damaged {
		return nil, nil, fmt.Errorf("ivm: view state damaged; rebuild required")
	}
	v.added, v.removed = nil, nil
	if del := v.relevant(deleted); del != nil {
		v.deletePass(del)
	}
	if ins := v.relevant(inserted); ins != nil {
		v.insertPass(ins)
	}
	if v.damaged {
		return nil, nil, fmt.Errorf("ivm: support counting underflowed; rebuild required")
	}
	// No pass holds a slot any more: squeeze out what the churn left.
	for _, d := range v.der {
		if d.tab.Repack(func(from, to int) { d.state[to] = d.state[from] }) {
			d.state = d.state[:d.tab.Rows()]
		}
	}
	return tuples(v.added), tuples(v.removed), nil
}

// relevant gathers the facts of a net delta that are over base
// predicates this view consults, one table per predicate: the tuples a
// pass pins, and the set it hides from the positions before the pin. It
// returns nil when there are none.
func (v *View) relevant(facts []Fact) map[string]*edb.Table {
	var out map[string]*edb.Table
	for _, f := range facts {
		if !v.basePreds[f.Pred] {
			continue
		}
		t := out[f.Pred]
		if t == nil {
			if out == nil {
				out = map[string]*edb.Table{}
			}
			t = edb.NewTable(len(f.Args))
			out[f.Pred] = t
		}
		t.Add(f.Args)
	}
	return out
}

// Tuples returns the current tuples of the query predicate.
func (v *View) Tuples() [][]symtab.Sym {
	if v.query != nil {
		return tuples(v.query.tab)
	}
	var out [][]symtab.Sym
	v.base.Relation(v.queryPred).Each(func(tuple []symtab.Sym) {
		out = append(out, append([]symtab.Sym(nil), tuple...))
	})
	return out
}

// tuples copies the live rows of t into one arena, nil for none.
func tuples(t *edb.Table) [][]symtab.Sym {
	if t == nil || t.Len() == 0 {
		return nil
	}
	out := make([][]symtab.Sym, 0, t.Len())
	flat := make([]symtab.Sym, 0, t.Len()*len(t.Row(0)))
	t.Each(0, nil, 0, t.Rows(), func(row []symtab.Sym) {
		flat = append(flat, row...)
		out = append(out, flat[len(flat)-len(row):len(flat):len(flat)])
	})
	return out
}

// Stats returns the view's work counters.
func (v *View) Stats() Stats {
	s := v.stats
	for _, d := range v.der {
		s.Facts += d.tab.Len()
	}
	return s
}

// --- deletion pass -----------------------------------------------------

// deletePass processes the net-deleted base facts: decrement every lost
// counted firing, cascade overdeletion through zeroed counts, then
// rederive survivors against the remaining state (DRed).
func (v *View) deletePass(del map[string]*edb.Table) {
	// Lost firings: every pre-state firing holding at least one deleted
	// tuple, enumerated exactly once by pinning the first deleted
	// position (earlier base positions exclude the deleted set, later
	// ones still see it — the base copy is updated only afterwards).
	h := v.maxHeight
	v.through(del, enumSpec{baseSkip: del, maxHBefore: h, maxHAfter: h}, v.decrement)
	for pred, t := range del {
		for s := 0; s < t.Rows(); s++ {
			v.base.Remove(pred, t.Row(s)...)
			if pred == v.queryPred {
				v.noteRemoved(t.Row(s))
			}
		}
	}

	// Overdeletion cascade: tentatively remove zeroed facts wave by
	// wave, decrementing the counted firings they supported. Earlier
	// waves are already gone from their tables, so only the current wave
	// needs an explicit exclusion split: its mark.
	type slotRef struct {
		d    *relation
		slot int32
	}
	var over []slotRef
	for v.advance() {
		for _, d := range v.der {
			for _, s := range d.delta {
				d.state[s].wave = true
			}
		}
		v.through(nil, enumSpec{maxHBefore: h, maxHAfter: h}, v.decrement)
		for _, d := range v.der {
			for _, s := range d.delta {
				row := d.tab.Row(int(s))
				d.tab.Remove(row)
				if d == v.query {
					v.noteRemoved(row)
				}
				over = append(over, slotRef{d, s})
			}
		}
	}
	if len(over) == 0 {
		return
	}
	v.stats.Repairs++

	// Rederivation round 1: a head-driven derivability probe for each
	// overdeleted fact — its tombstoned row is still there to read —
	// against the surviving state. Facts that still hold are reborn above
	// every existing height, so all their firings found here are counted
	// and none of them sees another. Later rounds are a plain
	// insertion-style closure.
	var count int32
	probe := func(*relation, []symtab.Sym, int) { count++ }
	for _, o := range over {
		row := o.d.tab.Row(int(o.slot))
		count = 0
		for ri := range v.plans {
			if v.plans[ri].head == o.d {
				v.enumerate(ri, enumSpec{pin: -1, headBound: row, maxHAfter: h}, probe)
			}
		}
		if count > 0 {
			v.derive(o.d, row, count, h+1)
		}
	}
	v.closeOver()
}

// decrement removes one counted supporting firing from head if the
// counted condition holds; a fact whose count reaches zero joins the
// next overdeletion wave. A head of the wave in progress is zeroed
// already.
func (v *View) decrement(d *relation, head []symtab.Sym, maxDer int) {
	s := d.tab.Find(head)
	if s < 0 {
		return
	}
	st := &d.state[s]
	if st.wave || maxDer >= st.height {
		return
	}
	st.count--
	if st.count == 0 {
		d.next = append(d.next, int32(s))
	}
	if st.count < 0 {
		st.count = 0
		v.damaged = true
	}
}

// --- insertion pass ----------------------------------------------------

// insertPass folds net-inserted base facts in: round 1 pins the
// inserted tuples, later rounds close over the derived deltas.
func (v *View) insertPass(ins map[string]*edb.Table) {
	for pred, t := range ins {
		for s := 0; s < t.Rows(); s++ {
			v.base.Insert(pred, t.Row(s)...)
			if pred == v.queryPred {
				v.noteAdded(t.Row(s))
			}
		}
	}
	h := v.maxHeight
	v.through(ins, enumSpec{baseSkip: ins, maxHBefore: h, maxHAfter: h},
		func(d *relation, head []symtab.Sym, maxDer int) { v.credit(d, head, maxDer, h+1) })
	v.closeOver()
}

// credit counts one newly valid firing, found by a round whose joins
// read heights below h: an existing head gains a counted support when
// the height condition holds — which it does for one born in this same
// round — and an unseen head is born at h.
func (v *View) credit(d *relation, head []symtab.Sym, maxDer, h int) {
	if s := d.tab.Find(head); s < 0 {
		v.derive(d, head, 1, h)
	} else if st := &d.state[s]; maxDer < st.height {
		st.count++
	}
}

// derive adds a fact that is not in d, with its state, to d, to the next
// delta and to the net answer delta.
func (v *View) derive(d *relation, row []symtab.Sym, count int32, height int) {
	d.tab.Add(row)
	d.next = append(d.next, int32(len(d.state)))
	d.state = append(d.state, factState{height: height, count: count})
	v.maxHeight = max(v.maxHeight, height)
	if d == v.query {
		v.noteAdded(row)
	}
}

// closeOver runs insertion-style semi-naive rounds over the facts the
// round before derived (all at v.maxHeight), until no new facts appear.
// The initial build, the insertion pass and DRed rederivation end in it —
// the three only differ in how their first round is seeded.
func (v *View) closeOver() {
	for v.advance() {
		h := v.maxHeight
		v.through(nil, enumSpec{maxHBefore: h - 1, maxHAfter: h},
			func(d *relation, head []symtab.Sym, maxDer int) { v.credit(d, head, maxDer, h+1) })
	}
}

// advance makes the slots collected since the last call the delta, and
// reports whether there are any.
func (v *View) advance() bool {
	more := false
	for _, d := range v.der {
		d.delta, d.next = d.next, d.delta[:0]
		more = more || len(d.delta) > 0
	}
	return more
}

// noteAdded records a (re)appearance of a query-predicate tuple in the
// net answer delta: a fact removed earlier in the same ApplyBase and
// re-added nets to no change.
func (v *View) noteAdded(row []symtab.Sym) {
	if v.removed != nil && v.removed.Remove(row) {
		return
	}
	if v.added == nil {
		v.added = edb.NewTable(len(row))
	}
	v.added.Add(row)
}

// noteRemoved records a disappearance; removals precede every addition
// of their ApplyBase.
func (v *View) noteRemoved(row []symtab.Sym) {
	if v.removed == nil {
		v.removed = edb.NewTable(len(row))
	}
	v.removed.Add(row)
}

// --- firing enumeration ------------------------------------------------

// enumSpec constrains one enumeration of a rule's firings.
type enumSpec struct {
	// pin, when >= 0, binds body literal pin to exactly pinTuple (a
	// delta tuple); pinHeight is its height, 0 for a base literal.
	pin       int
	pinTuple  []symtab.Sym
	pinHeight int
	// headBound, when non-nil, pre-binds the head arguments (the
	// rederivation probe).
	headBound []symtab.Sym
	// baseSkip tuples are invisible to base literals at positions
	// before pin, and so are the facts of the overdeletion wave in
	// progress to derived ones. Together with the pin they implement the
	// exactly-once "first delta position" split.
	baseSkip map[string]*edb.Table
	// maxHBefore / maxHAfter bound the height of derived tuples at
	// positions before/after pin (semi-naive round splits); unpinned,
	// every position is after.
	maxHBefore, maxHAfter int
}

// rulePlan holds one rule's compiled bodies, one per way enumerate can
// enter it — a rule that can never fire has none — and the relation of
// its head.
type rulePlan struct {
	head   *relation
	free   *bottomup.Body // nothing bound on entry
	probe  *bottomup.Body // head arguments bound (rederivation probe)
	pinned []pinnedBody   // by body position; empty at built-ins
}

type pinnedBody struct {
	body *bottomup.Body
	args []bottomup.Ref // the pinned literal's arguments
}

func compilePlans(prog *ast.Program) []rulePlan {
	plans := make([]rulePlan, len(prog.Rules))
	for ri, r := range prog.Rules {
		p := &plans[ri]
		if p.free = bottomup.CompileRule(r, nil, -1, nil); p.free == nil {
			continue
		}
		p.probe = bottomup.CompileRule(r, r.Head.Args, -1, nil)
		p.pinned = make([]pinnedBody, len(r.Body))
		for j, l := range r.Body {
			if !l.IsBuiltin() {
				b := bottomup.CompileRule(r, nil, j, nil)
				p.pinned[j] = pinnedBody{body: b, args: b.Refs(l.Args)}
			}
		}
	}
	return plans
}

// through enumerates the firings a pass enters through its delta: for
// every rule and every body position whose predicate has delta tuples —
// a base predicate's in base, a derived one's the delta slots of its
// relation — the firings with that position pinned to each of them, under
// spec's visibility bounds.
func (v *View) through(base map[string]*edb.Table, spec enumSpec, emit func(d *relation, head []symtab.Sym, maxDer int)) {
	for ri, r := range v.prog.Rules {
		for j, l := range r.Body {
			if l.IsBuiltin() {
				continue
			}
			spec.pin = j
			if d := v.der[l.Pred]; d != nil {
				for _, s := range d.delta {
					spec.pinTuple, spec.pinHeight = d.tab.Row(int(s)), d.state[s].height
					v.enumerate(ri, spec, emit)
				}
			} else if t := base[l.Pred]; t != nil {
				spec.pinHeight = 0
				for s := 0; s < t.Rows(); s++ {
					spec.pinTuple = t.Row(s)
					v.enumerate(ri, spec, emit)
				}
			}
		}
	}
}

// enumerate calls emit for every firing of rule ri satisfying spec,
// passing the head's relation, the instantiated head (valid only during
// the call) and the maximum height among derived body facts (0 when the
// body holds none). emit must not enumerate. The join is bottomup's; the
// view supplies its base and derived relations filtered by the spec's
// heights and skip sets, with each derived tuple's height as the tag the
// join maximises.
func (v *View) enumerate(ri int, spec enumSpec, emit func(d *relation, head []symtab.Sym, maxDer int)) {
	p := &v.plans[ri]
	b := p.free
	if b == nil {
		return
	}
	var entry []bottomup.Ref
	var tuple []symtab.Sym
	switch {
	case spec.headBound != nil:
		b = p.probe
		entry, tuple = b.Head, spec.headBound
	case spec.pin >= 0:
		b = p.pinned[spec.pin].body
		entry, tuple = p.pinned[spec.pin].args, spec.pinTuple
	}
	v.frame = b.Frame(v.frame)
	if entry != nil && !bottomup.Bind(v.frame, entry, tuple) {
		return
	}
	v.spec, v.plan, v.body, v.emit = spec, p, b, emit
	// The join has no context to poll, so Run cannot fail.
	_ = v.join.Run(b, v.frame, spec.pinHeight, v.src, v.onFrame)
}

// candidates is the view's tuple source for the enumeration in progress.
func (v *View) candidates(s *bottomup.Step, bound []symtab.Sym, y *bottomup.Yield) {
	before := s.Pos < v.spec.pin
	d := v.der[s.Pred]
	if d == nil {
		r := v.base.Relation(s.Pred)
		if skip := v.spec.baseSkip[s.Pred]; before && skip != nil {
			r.MatchEach(s.Mask, bound, y.Scratch, func(tuple []symtab.Sym) {
				if skip.Find(tuple) < 0 {
					y.Tuple(tuple)
				}
			})
		} else {
			r.MatchEach(s.Mask, bound, y.Scratch, y.Tuple)
		}
		return
	}
	maxH := v.spec.maxHAfter
	if before {
		maxH = v.spec.maxHBefore
	}
	d.tab.EachSlot(s.Mask, bound, 0, d.tab.Rows(), func(slot int, row []symtab.Sym) {
		if st := &d.state[slot]; st.height <= maxH && !(before && st.wave) {
			y.Tagged(row, st.height)
		}
	})
}

// project hands the head of a completed frame to the enumeration's emit.
func (v *View) project(frame []symtab.Sym, maxDer int) {
	v.head = bottomup.Project(v.head[:0], v.body.Head, frame)
	v.emit(v.plan.head, v.head, maxDer)
}

func (v *View) hasDerivedAtom(r ast.Rule) bool {
	for _, l := range r.Body {
		if !l.IsBuiltin() && v.der[l.Pred] != nil {
			return true
		}
	}
	return false
}
