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
//   - insertions run a delta-seeded semi-naive pass whose rounds buffer
//     their derivations, so each new firing is enumerated exactly once
//     and the counts stay exact.
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
	"math"

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
	// Maintained counts incremental maintenance passes applied.
	Maintained uint64
	// Recomputed counts full recomputations (the initial build, rule
	// changes, and any fallback from a damaged incremental state).
	Recomputed uint64
	// Repairs counts DRed overdelete/rederive repairs — deletion passes
	// where some support count reached zero.
	Repairs uint64
	// Facts is the number of derived facts currently materialized.
	Facts int
}

// factInfo is the per-derived-fact maintenance state.
type factInfo struct {
	count  int // valid counted firings supporting the fact
	height int // semi-naive round of (re)birth; counted bodies sit strictly below
}

// View maintains the fixpoint of prog restricted to the facts relevant
// to queryPred. It is not safe for concurrent use; the owning
// chainlog.DB serializes maintenance under its write lock.
type View struct {
	st        *symtab.Table
	prog      *ast.Program
	plans     []rulePlan // compiled bodies, parallel to prog.Rules
	join      *bottomup.Join
	derived   map[string]bool
	basePreds map[string]bool
	queryPred string

	base      *edb.Store // private copy of consulted base relations
	idb       *edb.Store // derived facts
	info      map[string]map[string]*factInfo
	maxHeight int
	damaged   bool

	stats Stats
}

// NewView builds a view of queryPred under prog, seeding the private
// base copy and the initial fixpoint from src. prog must already be
// sliced to the rules relevant to queryPred (including any magic
// rewrite); a base queryPred with no rules is also valid, in which case
// the view simply mirrors that relation.
func NewView(prog *ast.Program, queryPred string, src *edb.Store, st *symtab.Table) (*View, error) {
	if _, err := prog.Arities(); err != nil {
		return nil, err
	}
	v := &View{
		st:        st,
		prog:      prog,
		plans:     compilePlans(prog),
		join:      bottomup.NewJoin(nil, st),
		derived:   prog.DerivedSet(),
		queryPred: queryPred,
	}
	v.basePreds = map[string]bool{}
	for _, r := range prog.Rules {
		for _, l := range r.Body {
			if !l.IsBuiltin() && !v.derived[l.Pred] {
				v.basePreds[l.Pred] = true
			}
		}
	}
	if !v.derived[queryPred] {
		v.basePreds[queryPred] = true
	}
	v.rebuildFrom(src)
	return v, nil
}

// rebuildFrom copies the relevant base relations out of src and runs
// the initial height-annotated fixpoint plus the counting pass.
func (v *View) rebuildFrom(src *edb.Store) {
	v.base = edb.NewStore(v.st)
	for pred := range v.basePreds {
		if r := src.Relation(pred); r != nil {
			r.EachRaw(func(tuple []symtab.Sym) {
				v.base.Insert(pred, tuple...)
			})
		}
	}
	v.idb = edb.NewStore(v.st)
	v.info = map[string]map[string]*factInfo{}
	v.maxHeight = 0
	v.damaged = false
	v.stats.Recomputed++

	// Round 1: rules whose bodies hold no derived atom (including
	// empty-body magic seed rules).
	var delta []Fact
	for ri, r := range v.prog.Rules {
		if v.hasDerivedAtom(r) {
			continue
		}
		v.enumerate(ri, enumSpec{pin: -1, maxHBefore: math.MaxInt, maxHAfter: math.MaxInt},
			func(head []symtab.Sym, _ int) {
				if args, ok := v.insertNew(r.Head.Pred, head, 1); ok {
					delta = append(delta, Fact{Pred: r.Head.Pred, Args: args})
				}
			})
	}
	v.maxHeight = 1
	// Rounds 2..: semi-naive over the previous round's delta, heights
	// assigned by round. Counts are settled by the counting pass below,
	// so duplicate enumeration here is harmless; the height splits just
	// keep the work linear in the number of firings.
	v.closeOver(delta, nil, nil)

	// Counting pass: enumerate every valid firing once and count those
	// whose derived body heights all sit strictly below the head.
	for pred := range v.info {
		for _, fi := range v.info[pred] {
			fi.count = 0
		}
	}
	for ri, r := range v.prog.Rules {
		v.enumerate(ri, enumSpec{pin: -1, maxHBefore: math.MaxInt, maxHAfter: math.MaxInt},
			func(head []symtab.Sym, maxDer int) {
				if fi := v.get(r.Head.Pred, bottomup.Key(head)); fi != nil && maxDer < fi.height {
					fi.count++
				}
			})
	}
}

// ApplyBase folds one net base mutation into the view: deletions first
// (decrement, overdelete, rederive), then insertions (delta-seeded
// semi-naive). It returns the net tuple changes of the query predicate.
// A non-nil error means the incremental state is no longer trustworthy
// and the caller must Rebuild.
func (v *View) ApplyBase(inserted, deleted []Fact) (added, removed [][]symtab.Sym, err error) {
	if v.damaged {
		return nil, nil, fmt.Errorf("ivm: view state damaged; rebuild required")
	}
	qAdded := map[string][]symtab.Sym{}
	qRemoved := map[string][]symtab.Sym{}

	del := v.relevant(deleted)
	ins := v.relevant(inserted)
	if len(del) > 0 {
		v.deletePass(del, qAdded, qRemoved)
	}
	if len(ins) > 0 {
		v.insertPass(ins, qAdded, qRemoved)
	}
	v.stats.Maintained++
	for _, t := range qAdded {
		added = append(added, t)
	}
	for _, t := range qRemoved {
		removed = append(removed, t)
	}
	if v.damaged {
		return nil, nil, fmt.Errorf("ivm: support counting underflowed; rebuild required")
	}
	return added, removed, nil
}

// relevant filters a net delta down to the base predicates this view
// consults.
func (v *View) relevant(facts []Fact) []Fact {
	var out []Fact
	for _, f := range facts {
		if v.basePreds[f.Pred] {
			out = append(out, f)
		}
	}
	return out
}

// Tuples returns the current tuples of the query predicate.
func (v *View) Tuples() [][]symtab.Sym {
	store := v.idb
	if !v.derived[v.queryPred] {
		store = v.base
	}
	r := store.Relation(v.queryPred)
	if r == nil {
		return nil
	}
	var out [][]symtab.Sym
	r.EachRaw(func(tuple []symtab.Sym) {
		out = append(out, append([]symtab.Sym(nil), tuple...))
	})
	return out
}

// Stats returns the view's work counters.
func (v *View) Stats() Stats {
	s := v.stats
	for _, m := range v.info {
		s.Facts += len(m)
	}
	return s
}

// --- deletion pass -----------------------------------------------------

// deletePass processes the net-deleted base facts: decrement every lost
// counted firing, cascade overdeletion through zeroed counts, then
// rederive survivors against the remaining state (DRed).
func (v *View) deletePass(del []Fact, qAdded, qRemoved map[string][]symtab.Sym) {
	dset := factSet(del)
	// Lost firings: every pre-state firing holding at least one deleted
	// tuple, enumerated exactly once by pinning the first deleted
	// position (earlier base positions exclude the deleted set, later
	// ones still see it — the base copy is updated only afterwards).
	var zeroed []Fact
	onZero := func(pred string, args []symtab.Sym) {
		zeroed = append(zeroed, Fact{Pred: pred, Args: args})
	}
	for ri, r := range v.prog.Rules {
		for j, l := range r.Body {
			if l.IsBuiltin() || v.derived[l.Pred] || dset[l.Pred] == nil {
				continue
			}
			for _, f := range del {
				if f.Pred != l.Pred {
					continue
				}
				v.enumerate(ri, enumSpec{
					pin: j, pinTuple: f.Args, pinHeight: 0,
					baseSkip:   dset,
					maxHBefore: math.MaxInt, maxHAfter: math.MaxInt,
				}, func(head []symtab.Sym, maxDer int) {
					v.decrement(r.Head.Pred, head, maxDer, onZero)
				})
			}
		}
	}
	for _, f := range del {
		v.base.Remove(f.Pred, f.Args...)
		if !v.derived[v.queryPred] && f.Pred == v.queryPred {
			qRemoved[bottomup.Key(f.Args)] = f.Args
		}
	}
	if len(zeroed) == 0 {
		return
	}
	v.stats.Repairs++

	// Overdeletion cascade: tentatively remove zeroed facts wave by
	// wave, decrementing the counted firings they supported. Earlier
	// waves are already gone from the idb, so only the current wave
	// needs an explicit exclusion split.
	var over []Fact
	wave := zeroed
	for len(wave) > 0 {
		waveSet := factSet(wave)
		zeroed = nil
		for ri, r := range v.prog.Rules {
			for j, l := range r.Body {
				if l.IsBuiltin() || !v.derived[l.Pred] || waveSet[l.Pred] == nil {
					continue
				}
				for _, f := range wave {
					if f.Pred != l.Pred {
						continue
					}
					fi := v.get(f.Pred, bottomup.Key(f.Args))
					if fi == nil {
						continue
					}
					v.enumerate(ri, enumSpec{
						pin: j, pinTuple: f.Args, pinHeight: fi.height,
						derSkip:    waveSet,
						maxHBefore: math.MaxInt, maxHAfter: math.MaxInt,
					}, func(head []symtab.Sym, maxDer int) {
						if waveSet[r.Head.Pred] != nil && waveSet[r.Head.Pred][bottomup.Key(head)] {
							return // head already zeroed this wave
						}
						v.decrement(r.Head.Pred, head, maxDer, onZero)
					})
				}
			}
		}
		for _, f := range wave {
			v.idb.Remove(f.Pred, f.Args...)
			v.drop(f.Pred, bottomup.Key(f.Args))
			if f.Pred == v.queryPred {
				qRemoved[bottomup.Key(f.Args)] = f.Args
			}
			over = append(over, f)
		}
		// Facts zeroed by this wave that are not already overdeleted.
		wave = nil
		for _, f := range zeroed {
			if v.get(f.Pred, bottomup.Key(f.Args)) != nil {
				wave = append(wave, f)
			}
		}
	}

	// Rederivation round 1: a head-driven derivability probe for each
	// overdeleted fact against the surviving state. Facts that still
	// hold are reborn above every existing height, so all their firings
	// found here are counted.
	h1 := v.maxHeight + 1
	var reborn []Fact
	for _, f := range over {
		count := 0
		for ri, r := range v.prog.Rules {
			if r.Head.Pred != f.Pred {
				continue
			}
			v.enumerate(ri, enumSpec{
				pin: -1, headBound: f.Args,
				maxHBefore: math.MaxInt, maxHAfter: math.MaxInt,
			}, func(_ []symtab.Sym, _ int) {
				count++
			})
		}
		if count > 0 {
			reborn = append(reborn, Fact{Pred: f.Pred, Args: f.Args})
			v.put(f.Pred, f.Args, &factInfo{count: count, height: h1})
		}
	}
	for _, f := range reborn {
		v.idb.Insert(f.Pred, f.Args...)
		v.recordDerived(f.Pred, f.Args, qAdded, qRemoved)
	}
	if len(reborn) > 0 {
		v.maxHeight = h1
	}
	// Later rederivation rounds are a plain insertion-style closure.
	v.closeOver(reborn, qAdded, qRemoved)
}

// decrement removes one counted supporting firing from head if the
// counted condition holds, reporting facts whose count reaches zero.
func (v *View) decrement(pred string, head []symtab.Sym, maxDer int, onZero func(string, []symtab.Sym)) {
	fi := v.get(pred, bottomup.Key(head))
	if fi == nil || maxDer >= fi.height {
		return
	}
	fi.count--
	if fi.count == 0 {
		onZero(pred, append([]symtab.Sym(nil), head...))
	}
	if fi.count < 0 {
		fi.count = 0
		v.damaged = true
	}
}

// --- insertion pass ----------------------------------------------------

// insertPass folds net-inserted base facts in: round 1 pins the
// inserted tuples, later rounds close over the derived deltas.
func (v *View) insertPass(ins []Fact, qAdded, qRemoved map[string][]symtab.Sym) {
	iset := factSet(ins)
	for _, f := range ins {
		v.base.Insert(f.Pred, f.Args...)
		if !v.derived[v.queryPred] && f.Pred == v.queryPred {
			v.recordBaseInsert(f.Args, qAdded, qRemoved)
		}
	}
	h1 := v.maxHeight + 1
	next := map[string]*pending{}
	for ri, r := range v.prog.Rules {
		for j, l := range r.Body {
			if l.IsBuiltin() || v.derived[l.Pred] || iset[l.Pred] == nil {
				continue
			}
			for _, f := range ins {
				if f.Pred != l.Pred {
					continue
				}
				v.enumerate(ri, enumSpec{
					pin: j, pinTuple: f.Args, pinHeight: 0,
					baseSkip:   iset,
					maxHBefore: math.MaxInt, maxHAfter: math.MaxInt,
				}, func(head []symtab.Sym, maxDer int) {
					v.countNewFiring(r.Head.Pred, head, maxDer, next)
				})
			}
		}
	}
	delta := v.mergeRound(next, h1, qAdded, qRemoved)
	v.closeOver(delta, qAdded, qRemoved)
}

// pending is a fact derived during the current round, buffered until
// the round ends so same-round firings never feed each other.
type pending struct {
	args  []symtab.Sym
	count int
}

// countNewFiring credits one newly valid firing: existing heads gain a
// counted support when the height condition holds; unseen heads are
// buffered for insertion at the end of the round.
func (v *View) countNewFiring(pred string, head []symtab.Sym, maxDer int, next map[string]*pending) {
	if fi := v.get(pred, bottomup.Key(head)); fi != nil {
		if maxDer < fi.height {
			fi.count++
		}
		return
	}
	k := pred + "\x00" + bottomup.Key(head)
	if p := next[k]; p != nil {
		p.count++
		return
	}
	next[k] = &pending{args: append([]symtab.Sym(nil), head...), count: 1}
}

// mergeRound inserts a round's buffered derivations at height h and
// returns them as the next delta.
func (v *View) mergeRound(next map[string]*pending, h int, qAdded, qRemoved map[string][]symtab.Sym) []Fact {
	if len(next) == 0 {
		return nil
	}
	var delta []Fact
	for k, p := range next {
		pred := predOfKey(k)
		v.idb.Insert(pred, p.args...)
		v.put(pred, p.args, &factInfo{count: p.count, height: h})
		v.recordDerived(pred, p.args, qAdded, qRemoved)
		delta = append(delta, Fact{Pred: pred, Args: p.args})
	}
	if h > v.maxHeight {
		v.maxHeight = h
	}
	return delta
}

// closeOver runs insertion-style semi-naive rounds seeded by delta
// (facts all at v.maxHeight), until no new facts appear. Used by the
// initial build, the insertion pass and DRed rederivation — the three
// only differ in how their first round is seeded.
func (v *View) closeOver(delta []Fact, qAdded, qRemoved map[string][]symtab.Sym) {
	for len(delta) > 0 {
		hPrev := v.maxHeight
		dset := factSet(delta)
		next := map[string]*pending{}
		for ri, r := range v.prog.Rules {
			for j, l := range r.Body {
				if l.IsBuiltin() || !v.derived[l.Pred] || dset[l.Pred] == nil {
					continue
				}
				for _, f := range delta {
					if f.Pred != l.Pred {
						continue
					}
					v.enumerate(ri, enumSpec{
						pin: j, pinTuple: f.Args, pinHeight: hPrev,
						maxHBefore: hPrev - 1, maxHAfter: hPrev,
					}, func(head []symtab.Sym, maxDer int) {
						v.countNewFiring(r.Head.Pred, head, maxDer, next)
					})
				}
			}
		}
		delta = v.mergeRound(next, hPrev+1, qAdded, qRemoved)
	}
}

// recordDerived notes a derived-fact (re)appearance of the query pred
// in the net answer delta: a fact removed earlier in the same pass and
// re-added nets to no change.
func (v *View) recordDerived(pred string, args []symtab.Sym, qAdded, qRemoved map[string][]symtab.Sym) {
	if pred != v.queryPred || qAdded == nil {
		return
	}
	k := bottomup.Key(args)
	if _, ok := qRemoved[k]; ok {
		delete(qRemoved, k)
		return
	}
	qAdded[k] = args
}

// recordBaseInsert is recordDerived for the base-predicate view case.
func (v *View) recordBaseInsert(args []symtab.Sym, qAdded, qRemoved map[string][]symtab.Sym) {
	k := bottomup.Key(args)
	if _, ok := qRemoved[k]; ok {
		delete(qRemoved, k)
		return
	}
	qAdded[k] = args
}

// --- firing enumeration ------------------------------------------------

// enumSpec constrains one enumeration of a rule's firings.
type enumSpec struct {
	// pin, when >= 0, binds body literal pin to exactly pinTuple (a
	// delta tuple); pinHeight is its height when the literal is derived.
	pin       int
	pinTuple  []symtab.Sym
	pinHeight int
	// headBound, when non-nil, pre-binds the head arguments (the
	// rederivation probe).
	headBound []symtab.Sym
	// baseSkip tuples are invisible to base literals at positions
	// before pin; derSkip likewise for derived literals. Together with
	// the pin they implement the exactly-once "first delta position"
	// split.
	baseSkip map[string]map[string]bool
	derSkip  map[string]map[string]bool
	// maxHBefore / maxHAfter bound the height of derived tuples at
	// positions before/after pin (semi-naive round splits).
	maxHBefore, maxHAfter int
}

// rulePlan holds one rule's compiled bodies, one per way enumerate can
// enter it. A rule that can never fire has none.
type rulePlan struct {
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

// enumerate calls emit for every firing of rule ri satisfying spec,
// passing the instantiated head (valid only during the call) and the
// maximum height among derived body facts (0 when the body holds none).
// The join is bottomup's; the view supplies its base and derived
// relations filtered by the spec's heights and skip sets, with each
// derived tuple's height as the tag the join maximises.
func (v *View) enumerate(ri int, spec enumSpec, emit func(head []symtab.Sym, maxDer int)) {
	p := &v.plans[ri]
	b := p.free
	if b == nil {
		return
	}
	var entry []bottomup.Ref
	var tuple []symtab.Sym
	initMax := 0
	switch {
	case spec.headBound != nil:
		b = p.probe
		entry, tuple = b.Head, spec.headBound
	case spec.pin >= 0:
		b = p.pinned[spec.pin].body
		entry, tuple = p.pinned[spec.pin].args, spec.pinTuple
		if v.derived[v.prog.Rules[ri].Body[spec.pin].Pred] {
			initMax = spec.pinHeight
		}
	}
	frame := b.Frame(nil)
	if entry != nil && !bottomup.Bind(frame, entry, tuple) {
		return
	}
	candidates := func(s *bottomup.Step, bound []symtab.Sym, y *bottomup.Yield) {
		isDer := v.derived[s.Pred]
		store, skipSet := v.base, spec.baseSkip
		if isDer {
			store, skipSet = v.idb, spec.derSkip
		}
		maxH := spec.maxHAfter
		var skip map[string]bool
		if s.Pos < spec.pin {
			maxH = spec.maxHBefore
			skip = skipSet[s.Pred]
		}
		store.Relation(s.Pred).MatchEach(s.Mask, bound, func(tuple []symtab.Sym) {
			h := 0
			if isDer {
				fi := v.get(s.Pred, bottomup.Key(tuple))
				if fi == nil {
					return // being removed mid-cascade; treat as absent
				}
				h = fi.height
				if h > maxH {
					return
				}
			}
			if skip != nil && skip[bottomup.Key(tuple)] {
				return
			}
			y.Tagged(tuple, h)
		})
	}
	var head []symtab.Sym
	// The join has no context to poll, so Run cannot fail.
	_ = v.join.Run(b, frame, initMax, candidates, func(frame []symtab.Sym, maxDer int) {
		head = bottomup.Project(head[:0], b.Head, frame)
		emit(head, maxDer)
	})
}

// --- bookkeeping helpers -----------------------------------------------

func (v *View) hasDerivedAtom(r ast.Rule) bool {
	for _, l := range r.Body {
		if !l.IsBuiltin() && v.derived[l.Pred] {
			return true
		}
	}
	return false
}

// insertNew inserts a derived fact if absent, recording its info, and
// returns the view's own copy of args.
func (v *View) insertNew(pred string, args []symtab.Sym, height int) ([]symtab.Sym, bool) {
	k := bottomup.Key(args)
	if v.get(pred, k) != nil {
		return nil, false
	}
	args = append([]symtab.Sym(nil), args...)
	v.idb.Insert(pred, args...)
	v.put(pred, args, &factInfo{count: 0, height: height})
	return args, true
}

func (v *View) get(pred, key string) *factInfo {
	m := v.info[pred]
	if m == nil {
		return nil
	}
	return m[key]
}

func (v *View) put(pred string, args []symtab.Sym, fi *factInfo) {
	m := v.info[pred]
	if m == nil {
		m = map[string]*factInfo{}
		v.info[pred] = m
	}
	m[bottomup.Key(args)] = fi
}

func (v *View) drop(pred, key string) {
	if m := v.info[pred]; m != nil {
		delete(m, key)
	}
}

// predOfKey splits the pred out of a "pred\x00tuple" pending key.
func predOfKey(k string) string {
	for i := 0; i < len(k); i++ {
		if k[i] == 0 {
			return k[:i]
		}
	}
	return k
}

// factSet indexes a fact list as pred -> tuple key -> true.
func factSet(facts []Fact) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, f := range facts {
		m := out[f.Pred]
		if m == nil {
			m = map[string]bool{}
			out[f.Pred] = m
		}
		m[bottomup.Key(f.Args)] = true
	}
	return out
}
