// Package automaton compiles relational expressions into nondeterministic
// finite automata M(e), treating the expression as a regular expression
// over the alphabet of predicate symbols (Figure 1 of the paper).
//
// The construction is id-free. A state stands for a class of predicate
// occurrences of the expression that carry the same label and are
// reached by the same transitions — it is the state their transition
// leaves, "about to read" them — and besides those there are Start and
// Final. Most classes are one occurrence; Lemma 1's tc = e*.e spells
// two e's that every word reaches together, and they are one state. The
// transition of a class goes straight to the states of every occurrence
// that may follow one of its members (and to Final when one may end a
// word), so there are no empty-string hops between them. Start carries a
// copy of the transition of every class that can only begin a word, and
// those classes get no state of their own. An "id" transition (the
// identity relation) is left for two genuine identities, both leaving
// Start: to Final when the expression accepts the empty word, and to the
// state of a class that may begin a word and also follow another — the
// head of a loop the expression opens with, which a copy on Start would
// probe a second time once the loop came round.
//
// Compile keeps Final a sink, which Splice needs. CompileRegular, for an
// automaton that is never spliced, lets Final be a state like any other:
// when the classes entering Final are exactly those entering one class,
// the two hold the same terms, and that class's state is Final — it
// reads its label and answers. If the class also begins a word and the
// expression is not nullable, Start carries a copy of the class's
// transition instead of the id entry, which would make the start term an
// answer. tc = e*.e is then q0 -e-> q1, q1 -e-> q1: every term reached
// is one node, where a sink Final made it two.
//
// This matters because the evaluator's cost is the number of (state,
// term) nodes of its interpretation graph: every state other than Start
// and a sink Final leaves by exactly one transition, so every node of the
// graph is one probe of one relation, not a probe plus the identity hops
// that led to it; and occurrences reached by the same transitions hold
// the same terms, so sharing their state probes each of those terms once.
//
// A transition with several targets is stored as adjacent edges of its
// source state: the first is the head, the rest carry Fan, and a
// traversal probes once at the head and fans the result out.
//
// The evaluation of a query for predicate p is controlled by a hierarchy
// of automata EM(p,i): EM(p,1) is a copy of M(e_p), and EM(p,i+1) is
// obtained by replacing each transition on a derived predicate r with a
// fresh copy of M(e_r) (Figure 2). Splice is that step, again without
// pass-through states: the copy's entry transitions are hung on the
// state the derived transition left and its exits go to the derived
// transition's own targets. The NFA type is mutable to support exactly
// that; the evaluator in internal/chaineval drives it on demand.
package automaton

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"chainlog/internal/expr"
)

// compiles counts Compile calls process-wide; tests assert plan reuse
// ("compile once, bind many") by checking it stays flat across runs.
var compiles atomic.Int64

// CompileCount returns the total number of Compile calls so far.
func CompileCount() int64 { return compiles.Load() }

// Label is a transition label: a predicate symbol (possibly traversed
// inversely) or the identity relation.
type Label struct {
	// Pred is the predicate name; empty for id transitions.
	Pred string
	// Inv marks an inverse traversal (the label p⁻¹): follow tuples from
	// second component to first.
	Inv bool
}

// IsID reports whether the label is the identity relation.
func (l Label) IsID() bool { return l.Pred == "" }

func (l Label) String() string {
	if l.IsID() {
		return "id"
	}
	if l.Inv {
		return l.Pred + "~"
	}
	return l.Pred
}

// EdgeKind classifies a transition for the evaluator's hot loop, so the
// per-node dispatch is a jump on a small int instead of string
// comparisons and map lookups. IsID/Inv are derivable from the Label;
// KindDerived requires knowledge of the equation system and is stamped
// by Annotate.
type EdgeKind uint8

const (
	// KindID is an identity (epsilon) transition.
	KindID EdgeKind = iota
	// KindBase is a forward traversal of a base predicate.
	KindBase
	// KindBaseInv is an inverse traversal of a base predicate.
	KindBaseInv
	// KindDerived marks a derived-predicate transition (a continuation
	// point expanded by EM(p,i+1)); set by Annotate.
	KindDerived
	// KindRemoved marks a transition Splice replaced.
	KindRemoved
)

// NoAux is the Aux value of an unannotated edge: the evaluator falls
// back to by-name source resolution when it sees it.
const NoAux int32 = -1

// kindOf computes the label-derivable classification (never KindDerived).
func kindOf(l Label) EdgeKind {
	switch {
	case l.IsID():
		return KindID
	case l.Inv:
		return KindBaseInv
	default:
		return KindBase
	}
}

// Trans is one (transition, target) pair as Out and Each report it.
type Trans struct {
	From  int
	Label Label
	To    int
}

// Edge is one target of a transition, stored flat in its source state's
// edge slice. Edges exposes these directly — one contiguous slice per
// state — so evaluator inner loops iterate without a callback.
type Edge struct {
	To int32
	// Kind is the dispatch class (id / base / inverse-base / derived).
	Kind EdgeKind
	// Fan marks a further target of the transition whose head is the
	// nearest preceding edge without it: same label, same probe.
	Fan bool
	// Aux is a client annotation slot (the evaluator stores the index of
	// the edge's relation in the table each run binds); NoAux when
	// unannotated.
	Aux   int32
	Label Label
}

// Removed reports whether the transition has been replaced by Splice;
// Edges callers must skip removed entries.
func (e *Edge) Removed() bool { return e.Kind == KindRemoved }

// Compile's state numbering, which Splice relies on: the occurrence
// states follow Start and Final.
const (
	startState = 0
	finalState = 1
	firstOcc   = 2
)

// NFA is a mutable nondeterministic finite automaton with a single start
// and a single final state.
type NFA struct {
	Start, Final int
	out          [][]Edge // state -> outgoing transitions, stored flat
}

// NumStates returns the number of states.
func (m *NFA) NumStates() int { return len(m.out) }

// NumTrans returns the number of live (transition, target) pairs.
func (m *NFA) NumTrans() int {
	n := 0
	for _, es := range m.out {
		for i := range es {
			if !es[i].Removed() {
				n++
			}
		}
	}
	return n
}

// addState appends a fresh state, reusing spare edge-buffer capacity
// left behind by CloneInto so EM expansion on a pooled automaton stays
// allocation-light.
func (m *NFA) addState() int {
	if len(m.out) < cap(m.out) {
		m.out = m.out[:len(m.out)+1]
		m.out[len(m.out)-1] = m.out[len(m.out)-1][:0]
	} else {
		m.out = append(m.out, nil)
	}
	return len(m.out) - 1
}

// addTrans appends the transition from -label-> targets to from's edges.
// The edges' Kind is the label-derivable class (never KindDerived) and
// their Aux starts at NoAux; Annotate upgrades both once the equation
// system is known.
func (m *NFA) addTrans(from int, label Label, targets []int32) {
	for i, to := range targets {
		m.out[from] = append(m.out[from], Edge{To: to, Kind: kindOf(label), Fan: i > 0, Aux: NoAux, Label: label})
	}
}

// Annotate classifies every transition: derived(pred) marks derived-
// predicate transitions (continuation points), and aux(pred) supplies the
// client annotation stored on base-predicate edges (NoAux-returning aux
// leaves them unresolved). Id transitions are left untouched. The
// annotation survives Splice and CloneInto, so annotating each compiled
// M(e_r) once annotates every EM(p,i) built from it.
func (m *NFA) Annotate(derived func(pred string) bool, aux func(pred string) int32) {
	for _, es := range m.out {
		for i := range es {
			e := &es[i]
			switch {
			case e.Label.IsID():
			case derived(e.Label.Pred):
				e.Kind = KindDerived
			case aux != nil:
				e.Aux = aux(e.Label.Pred)
			}
		}
	}
}

// Out calls f for each live (transition, target) pair leaving state q.
func (m *NFA) Out(q int, f func(t Trans)) {
	for i := range m.out[q] {
		if e := &m.out[q][i]; !e.Removed() {
			f(Trans{From: q, Label: e.Label, To: int(e.To)})
		}
	}
}

// Edges returns the outgoing edge slice of state q, aliasing internal
// storage: callers must not mutate it and must skip entries whose
// Removed() is true. It is the closure-free iteration surface for
// evaluator hot loops.
func (m *NFA) Edges(q int) []Edge { return m.out[q] }

// Each calls f for every live (transition, target) pair.
func (m *NFA) Each(f func(t Trans)) {
	for q := range m.out {
		m.Out(q, f)
	}
}

// Splice replaces the transition whose head is edge i of state q by a
// fresh copy of sub, which must be an automaton as Compile left it. This
// is the EM(p,i) expansion step, with no pass-through states: the copy's
// Start and Final are not copied — Start's transitions are appended to
// q's own edges, and every edge into Final goes to each target of the
// replaced transition instead. It returns the number of the copy's first
// state; q's edges from the old len(Edges(q)) on are the copy's entries.
// A sub whose Final has transitions (CompileRegular's) has no such exits,
// and Splice panics on it: the caller compiled the wrong form.
func (m *NFA) Splice(q, i int, sub *NFA) (first int) {
	if len(sub.out[sub.Final]) > 0 {
		panic("automaton: Splice of an automaton whose Final has transitions")
	}
	j := i + 1
	for j < len(m.out[q]) && m.out[q][j].Fan {
		j++
	}
	for k := i; k < j; k++ {
		m.out[q][k].Kind = KindRemoved
	}
	first = m.NumStates()
	for s := firstOcc; s < len(sub.out); s++ {
		m.addState()
	}
	// exits aliases q's edges while the copy appends to them; a
	// reallocation leaves the old array, and what it holds, in place.
	exits := m.out[q][i:j]
	for s := firstOcc; s < len(sub.out); s++ {
		m.out[first+s-firstOcc] = spliceEdges(m.out[first+s-firstOcc], sub.out[s], first, exits)
	}
	m.out[q] = spliceEdges(m.out[q], sub.out[startState], first, exits)
	return first
}

// spliceEdges appends a copy of src, edges of a state of a compiled
// automaton, to dst: states are renumbered from first, and an edge into
// Final becomes one edge to each of exits' targets.
func spliceEdges(dst, src []Edge, first int, exits []Edge) []Edge {
	for _, e := range src {
		if e.To != finalState {
			e.To += int32(first) - firstOcc
			dst = append(dst, e)
			continue
		}
		for _, x := range exits {
			e.To = x.To
			dst = append(dst, e)
			e.Fan = true
		}
	}
	return dst
}

// CloneInto overwrites dst with a deep copy of m, reusing dst's state
// spine and per-state edge buffers. A pooled destination that has grown
// to the workload's steady-state size makes the copy — and the EM
// expansions that follow it — allocation-free.
func (m *NFA) CloneInto(dst *NFA) {
	dst.Start, dst.Final = m.Start, m.Final
	n := len(m.out)
	if cap(dst.out) < n {
		grown := make([][]Edge, cap(dst.out), n*2)
		copy(grown, dst.out[:cap(dst.out)])
		dst.out = grown
	}
	full := dst.out[:cap(dst.out)]
	for i := 0; i < n; i++ {
		full[i] = append(full[i][:0], m.out[i]...)
	}
	// Empty (but keep) the spare buffers so addState can hand them out.
	for i := n; i < len(full); i++ {
		full[i] = full[i][:0]
	}
	dst.out = full[:n]
}

// String renders the automaton for debugging and golden tests: one line
// per live (transition, target) pair in state order, with start/final
// marked.
func (m *NFA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "start=q%d final=q%d states=%d\n", m.Start, m.Final, m.NumStates())
	m.Each(func(t Trans) {
		fmt.Fprintf(&b, "q%d -%s-> q%d\n", t.From, t.Label, t.To)
	})
	return b.String()
}

// Compile builds M(e): Start is state 0, Final state 1, and the classes
// of occurrences that may follow another take the states from 2 on in
// the order the expression spells their least members. Inverses of
// compound subexpressions are compiled by reversing them first, so
// inverse labels appear only on predicate transitions. Final is a sink,
// as Splice needs it.
func Compile(e expr.Expr) *NFA { return compile(e, merged) }

// CompileRegular is Compile for an automaton that is traversed and never
// spliced — a regular equation's M(e_p) or the cyclic guard's M(e1*) and
// M(e0·e2*): when one class holds exactly Final's terms, Final is that
// class's state, so a traversal visits each of those terms once where
// the sink visited it twice. Splice panics on what it compiles.
func CompileRegular(e expr.Expr) *NFA { return compile(e, finalMerged) }

// form is how far compile merges.
type form uint8

const (
	// perOccurrence gives every occurrence that follows another a state
	// of its own: the automaton the tests hold the merged ones against.
	perOccurrence form = iota
	// merged gives a state to each class of occurrences reached by the
	// same transitions, and keeps Final a sink (Compile).
	merged
	// finalMerged is merged with Final the state of the class that holds
	// its terms (CompileRegular).
	finalMerged
)

func compile(e expr.Expr, f form) *NFA {
	compiles.Add(1)
	var b builder
	root := b.walk(e)
	for _, x := range root.last {
		b.follow[x] = append(b.follow[x], final)
	}
	slices.Sort(root.first)
	root.first = slices.Compact(root.first)
	class, preds := b.classes(root.first, f != perOccurrence)
	fc := int32(-1)
	if f == finalMerged {
		fc = b.finalClass(root, class, preds)
	}

	// Number the classes whose members follow another occurrence; Final's
	// class, when there is one, is Final.
	state := make([]int32, len(b.labels))
	n := int32(firstOcc)
	for x, c := range class {
		switch {
		case int32(x) == fc:
			state[x] = finalState
		case c == int32(x) && len(preds[x]) > 0:
			state[x] = n
			n++
		}
	}
	// targets[c] is where the transition of class c goes: the union of its
	// members' follow sets, as states.
	targets := make([][]int32, len(b.labels))
	for x, c := range class {
		if c < 0 {
			continue
		}
		for _, y := range b.follow[x] {
			if y == final {
				targets[c] = append(targets[c], finalState)
			} else {
				targets[c] = append(targets[c], state[class[y]])
			}
		}
	}
	for c, ts := range targets {
		slices.Sort(ts)
		targets[c] = slices.Compact(ts)
	}

	m := &NFA{Start: startState, Final: finalState, out: make([][]Edge, n)}
	if root.nullable {
		m.addTrans(startState, Label{}, []int32{finalState})
	}
	for _, x := range root.first {
		switch {
		case class[x] != x:
			// The class's least member makes its entry.
		case x == fc && root.nullable:
			// Start's id to Final, above, is the entry.
		case state[x] != 0 && x != fc:
			m.addTrans(startState, Label{}, []int32{state[x]})
		default:
			// A class that only begins a word, or Final's class, whose id
			// entry would make the start term an answer: Start probes for it.
			m.addTrans(startState, b.labels[x], targets[x])
		}
	}
	for x, q := range state {
		if q != 0 {
			m.addTrans(int(q), b.labels[x], targets[x])
		}
	}
	return m
}

// finalClass returns the class whose state can be Final, -1 when none
// can. Final's terms are those of the classes that may end a word, and
// the start term when the expression is nullable; a class state's are
// those of its predecessor classes, and the start term when it may begin
// a word. Where the two lists of classes are equal the terms are equal,
// except that a class that begins a non-nullable expression also holds
// the start term: merged, Start carries a copy of its transition instead
// of the id entry, which probes that term once more only when it lies on
// a cycle through itself. The first such class in occurrence order wins.
func (b *builder) finalClass(root part, class []int32, preds [][]int32) int32 {
	var enders, pc []int32
	for x, c := range class {
		if c >= 0 && slices.Contains(b.follow[x], final) {
			enders = append(enders, c)
		}
	}
	slices.Sort(enders)
	enders = slices.Compact(enders)
	for x, c := range class {
		if c != int32(x) || len(preds[x]) == 0 {
			continue
		}
		if _, begins := slices.BinarySearch(root.first, c); root.nullable && !begins {
			continue
		}
		pc = pc[:0]
		for _, p := range preds[x] {
			pc = append(pc, class[p])
		}
		slices.Sort(pc)
		if slices.Equal(slices.Compact(pc), enders) {
			return c
		}
	}
	return -1
}

// classes partitions the occurrences a word can reach — those of first
// and every occurrence one of them may be followed by, transitively —
// into the classes that become states. It returns each occurrence's
// class, named by its least member (-1 for an occurrence no word
// reaches), and each reachable occurrence's reachable predecessors.
//
// Two occurrences share a class when they carry the same label and the
// same classes of occurrences lead to them, Start's entry counting as
// one. The terms at such occurrences are created from the same terms by
// the same transitions, so they are equal sets, and one state probes
// each of them once where two states probed it twice. Merging one pair
// can make another pair's predecessors equal (the first ups of
// up.flat.down ∪ up.up.flat.down.down ∪ up.up.up.flat.down.down.down,
// then the second ups of the last two), so the merge is repeated until
// nothing changes. Each round computes every key from the previous
// round's classes, whose members already share their keys, so a round
// only unions classes and the loop ends within as many rounds as there
// are occurrences.
func (b *builder) classes(first []int32, merge bool) (class []int32, preds [][]int32) {
	n := len(b.labels)
	class = make([]int32, n)
	for x := range class {
		class[x] = -1
	}
	preds = make([][]int32, n)
	begins := make([]bool, n)
	work := slices.Clone(first)
	for _, x := range first {
		begins[x] = true
		class[x] = x
	}
	for len(work) > 0 {
		x := work[len(work)-1]
		work = work[:len(work)-1]
		for _, y := range b.follow[x] {
			if y == final {
				continue
			}
			preds[y] = append(preds[y], x)
			if class[y] < 0 {
				class[y] = y
				work = append(work, y)
			}
		}
	}
	if !merge {
		return class, preds
	}

	next := make([]int32, n)
	ids := make(map[string]int32)
	var key []byte
	var pc []int32
	for changed := true; changed; class, next = next, class {
		changed = false
		clear(ids)
		for y, c := range class {
			if c < 0 {
				next[y] = -1
				continue
			}
			// The key: the label, then the predecessor classes, Start's
			// entry as class -1.
			pc = pc[:0]
			if begins[y] {
				pc = append(pc, -1)
			}
			for _, x := range preds[y] {
				pc = append(pc, class[x])
			}
			slices.Sort(pc)
			label := b.labels[y].String()
			key = binary.AppendUvarint(key[:0], uint64(len(label)))
			key = append(key, label...)
			for _, p := range slices.Compact(pc) {
				key = binary.AppendUvarint(key, uint64(p+1))
			}
			id, ok := ids[string(key)]
			if !ok {
				id = int32(y)
				ids[string(key)] = id
			}
			next[y] = id
			changed = changed || id != c
		}
	}
	return class, preds
}

// final stands for the Final state in a follow set.
const final int32 = -1

// builder numbers the predicate occurrences of an expression and
// collects, for each, the occurrences that may follow it.
type builder struct {
	labels []Label
	follow [][]int32
}

// part describes a subexpression: the occurrences that may begin and end
// one of its words, and whether the empty word is one.
type part struct {
	first, last []int32
	nullable    bool
}

func (b *builder) occurrence(l Label) part {
	x := int32(len(b.labels))
	b.labels = append(b.labels, l)
	b.follow = append(b.follow, nil)
	return part{first: []int32{x}, last: []int32{x}}
}

// link records that every occurrence of first may follow every
// occurrence of last.
func (b *builder) link(last, first []int32) {
	for _, x := range last {
		b.follow[x] = append(b.follow[x], first...)
	}
}

func (b *builder) walk(e expr.Expr) part {
	switch v := e.(type) {
	case expr.Pred:
		return b.occurrence(Label{Pred: v.Name})
	case expr.Ident:
		return part{nullable: true}
	case expr.Empty:
		return part{}
	case expr.Inverse:
		if p, ok := v.E.(expr.Pred); ok {
			return b.occurrence(Label{Pred: p.Name, Inv: true})
		}
		return b.walk(expr.Reverse(v.E, nil))
	case expr.Union:
		var u part
		for _, t := range v.Terms {
			p := b.walk(t)
			u.first = append(u.first, p.first...)
			u.last = append(u.last, p.last...)
			u.nullable = u.nullable || p.nullable
		}
		return u
	case expr.Concat:
		c := b.walk(v.Terms[0])
		for _, t := range v.Terms[1:] {
			p := b.walk(t)
			b.link(c.last, p.first)
			if c.nullable {
				c.first = append(slices.Clip(c.first), p.first...)
			}
			if p.nullable {
				c.last = append(slices.Clip(p.last), c.last...)
			} else {
				c.last = p.last
			}
			c.nullable = c.nullable && p.nullable
		}
		return c
	case expr.Star:
		p := b.walk(v.E)
		b.link(p.last, p.first)
		p.nullable = true
		return p
	}
	panic(fmt.Sprintf("automaton: unknown expression %T", e))
}
