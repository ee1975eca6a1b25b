package bottomup

import (
	"context"

	"chainlog/internal/ast"
	"chainlog/internal/ctxpoll"
	"chainlog/internal/symtab"
)

// Ref is a compiled term: a slot of the substitution frame, or a constant
// when slot is negative.
type Ref struct {
	slot int
	cnst symtab.Sym
}

func (r Ref) val(frame []symtab.Sym) symtab.Sym {
	if r.slot < 0 {
		return r.cnst
	}
	return frame[r.slot]
}

// Step is one body literal at its place in the evaluation order.
type Step struct {
	// Pred is the atom's predicate; a comparison step has Op set instead.
	Pred string
	Op   ast.BuiltinOp
	// Pos is the literal's index in the body as written.
	Pos  int
	Args []Ref
	// Mask has bit i set when argument i is bound when the step is
	// reached (a constant, or a variable bound on entry or by an earlier
	// step); bound lists those arguments in position order, matching
	// edb.Relation.MatchEach's calling convention.
	Mask  uint32
	bound []Ref
	// free lists the unbound argument positions. A variable's first free
	// occurrence assigns its slot; a repeat inside the same atom checks.
	free []freeArg
	// off is where the step's bound vector sits in a run's scratch.
	off int
}

type freeArg struct {
	pos, slot int
	check     bool
}

// Body is a rule body compiled once into a flat step program: a fixed
// bound-first order, argument references into a []Sym frame, and the
// statically known bound mask of every step. It is immutable and safe to
// run concurrently, one frame per run.
type Body struct {
	Steps []Step
	// Head builds the derived fact from a completed frame (CompileRule).
	Head   []Ref
	slots  map[string]int
	nbound int
}

// Compile fixes the evaluation order of body given the variables bound
// on entry: those of the entry terms and, when pin >= 0, of body literal
// pin, which the driver binds itself and which is left out of the steps.
// The order is greedy: a comparison as soon as its variables are bound,
// otherwise the atom with the most bound arguments, atoms over deferred
// predicates losing ties, then body order. (qsqnet defers derived atoms:
// opening one spawns a subquery, so it waits for an extensional atom
// that might bind more of it. The other drivers store derived relations
// like base ones and defer nothing.) Compile returns nil when a
// comparison's variables are never all bound: such a body has no
// solution.
func Compile(body []ast.Literal, entry []ast.Term, pin int, deferred map[string]bool) *Body {
	b := &Body{slots: map[string]int{}}
	bind := func(terms []ast.Term) {
		for _, t := range terms {
			if t.IsVar() {
				if _, ok := b.slots[t.Var]; !ok {
					b.slots[t.Var] = len(b.slots)
				}
			}
		}
	}
	isBound := func(t ast.Term) bool {
		_, ok := b.slots[t.Var]
		return ok || !t.IsVar()
	}
	bind(entry)
	done := make([]bool, len(body))
	left := len(body)
	if pin >= 0 {
		bind(body[pin].Args)
		done[pin] = true
		left--
	}
	for ; left > 0; left-- {
		pick, best := -1, -1
		for i, l := range body {
			if done[i] {
				continue
			}
			nb := 0
			for _, a := range l.Args {
				if isBound(a) {
					nb++
				}
			}
			if l.IsBuiltin() {
				if nb == len(l.Args) {
					pick = i
					break
				}
				continue
			}
			score := 2 * nb
			if !deferred[l.Pred] {
				score++
			}
			if score > best {
				best, pick = score, i
			}
		}
		if pick < 0 {
			return nil
		}
		done[pick] = true
		l := body[pick]
		s := Step{Pred: l.Pred, Op: l.Op, Pos: pick, off: b.nbound}
		for i, a := range l.Args {
			if isBound(a) {
				s.Mask |= 1 << uint(i)
			}
		}
		bind(l.Args)
		s.Args = b.Refs(l.Args)
		assigned := map[int]bool{}
		for i, r := range s.Args {
			if s.Mask&(1<<uint(i)) != 0 {
				s.bound = append(s.bound, r)
				continue
			}
			s.free = append(s.free, freeArg{pos: i, slot: r.slot, check: assigned[r.slot]})
			assigned[r.slot] = true
		}
		b.nbound += len(s.bound)
		b.Steps = append(b.Steps, s)
	}
	return b
}

// CompileRule is Compile for a whole rule, with Head set. It also
// returns nil for a rule that is not range-restricted — a head variable
// occurs in no body atom — because bottom-up evaluation never fires it,
// whatever the entry bindings.
func CompileRule(r ast.Rule, entry []ast.Term, pin int, deferred map[string]bool) *Body {
	inAtom := map[string]bool{}
	for _, l := range r.Body {
		if !l.IsBuiltin() {
			for _, a := range l.Args {
				inAtom[a.Var] = true
			}
		}
	}
	for _, a := range r.Head.Args {
		if a.IsVar() && !inAtom[a.Var] {
			return nil
		}
	}
	b := Compile(r.Body, entry, pin, deferred)
	if b != nil {
		b.Head = b.Refs(r.Head.Args)
	}
	return b
}

// Refs resolves terms against the body's frame layout. A variable the
// body never binds resolves to the constant symtab.None.
func (b *Body) Refs(terms []ast.Term) []Ref {
	refs := make([]Ref, len(terms))
	for i, t := range terms {
		refs[i] = Ref{slot: -1, cnst: t.Const}
		if t.IsVar() {
			refs[i].cnst = symtab.None
			if s, ok := b.slots[t.Var]; ok {
				refs[i].slot = s
			}
		}
	}
	return refs
}

// Frame returns an all-unbound substitution frame for one run, reusing
// buf's storage when it is large enough.
func (b *Body) Frame(buf []symtab.Sym) []symtab.Sym {
	if cap(buf) < len(b.slots) {
		return make([]symtab.Sym, len(b.slots))
	}
	buf = buf[:len(b.slots)]
	clear(buf)
	return buf
}

// Bind unifies refs with tuple on a frame no run has used yet, reporting
// false on a constant or repeated-variable mismatch. Drivers bind the
// entry terms (and a pinned literal) with it before Run.
func Bind(frame []symtab.Sym, refs []Ref, tuple []symtab.Sym) bool {
	if len(refs) != len(tuple) {
		return false
	}
	for i, r := range refs {
		switch {
		case r.slot < 0:
			if r.cnst != tuple[i] {
				return false
			}
		case frame[r.slot] == symtab.None:
			frame[r.slot] = tuple[i]
		case frame[r.slot] != tuple[i]:
			return false
		}
	}
	return true
}

// Project appends refs instantiated under frame to dst.
func Project(dst []symtab.Sym, refs []Ref, frame []symtab.Sym) []symtab.Sym {
	for _, r := range refs {
		dst = append(dst, r.val(frame))
	}
	return dst
}

// Source supplies the candidate tuples of an atom step: it must hand y
// every tuple of the step's relation, as the driver defines it, whose
// Mask positions equal bound. bound is scratch, valid only during the
// call.
type Source func(s *Step, bound []symtab.Sym, y *Yield)

// Yield receives a step's candidates. A tag is a per-tuple integer the
// join maximises along each solution (ivm's derivation heights).
type Yield struct {
	// Tuple takes a candidate with tag 0; it fits edb.Relation.MatchEach.
	Tuple func(tuple []symtab.Sym)
	// Scratch is the step's own two symbols, for a source to pass
	// edb.Relation.MatchEach as its scratch tuple.
	Scratch []symtab.Sym
	// Tagged takes a candidate and its tag.
	Tagged func(tuple []symtab.Sym, tag int)
}

// pollEvery bounds how many candidate tuples a join consumes between
// context polls: the same order of magnitude as the chain engine's
// node-visit poll stride, so a deadline cancels a runaway join promptly
// without the poll dominating tight loops.
const pollEvery = 4096

// Join runs compiled bodies for one evaluation, one at a time. It
// carries the context and the poll stride across runs, so many small
// joins are polled as one stream of tuples, and it owns the per-depth
// scratch, so a run allocates nothing. A Join is for one goroutine.
type Join struct {
	ctx context.Context
	st  *symtab.Table
	n   int
	err error

	// The run in progress.
	b     *Body
	frame []symtab.Sym
	src   Source
	emit  func(frame []symtab.Sym, tag int)
	// Per step depth: the bound-vector scratch (carved by Step.off), the
	// tag on reaching the step, and the yield handed to the source.
	bound  []symtab.Sym
	tags   []int
	yields []Yield
}

// NewJoin returns a Join comparing constants through st. A nil ctx
// never cancels.
func NewJoin(ctx context.Context, st *symtab.Table) *Join {
	return &Join{ctx: ctx, st: st}
}

// reset readies j for another evaluation, keeping its scratch: a new
// context and symbol table, the poll stride restarted and no error.
func (j *Join) reset(ctx context.Context, st *symtab.Table) {
	j.ctx, j.st, j.n, j.err = ctx, st, 0, nil
}

// Run enumerates the solutions of b by index nested loops — the one
// rule-body join every bottom-up strategy shares. frame holds the entry
// bindings; emit receives it completed, once per solution, with the
// maximum of tag and the solution's tuple tags, and must not keep it.
// Neither src nor emit may call Run on the same Join. Run returns the
// context's error once a poll has seen it, and so does every later Run.
func (j *Join) Run(b *Body, frame []symtab.Sym, tag int, src Source, emit func(frame []symtab.Sym, tag int)) error {
	if j.err != nil {
		return j.err
	}
	j.b, j.frame, j.src, j.emit = b, frame, src, emit
	if len(j.bound) < b.nbound {
		j.bound = make([]symtab.Sym, b.nbound)
	}
	for i := len(j.yields); i < len(b.Steps); i++ {
		j.tags = append(j.tags, 0)
		j.yields = append(j.yields, Yield{
			Tuple:   func(tuple []symtab.Sym) { j.candidate(i, tuple, 0) },
			Tagged:  func(tuple []symtab.Sym, tag int) { j.candidate(i, tuple, tag) },
			Scratch: make([]symtab.Sym, 2),
		})
	}
	j.step(0, tag)
	return j.err
}

// step evaluates the steps from depth i on under the current frame.
func (j *Join) step(i, tag int) {
	if i == len(j.b.Steps) {
		j.emit(j.frame, tag)
		return
	}
	s := &j.b.Steps[i]
	if s.Op != ast.OpNone {
		if Compare(j.st, s.Op, s.Args[0].val(j.frame), s.Args[1].val(j.frame)) {
			j.step(i+1, tag)
		}
		return
	}
	bound := Project(j.bound[s.off:s.off], s.bound, j.frame)
	j.tags[i] = tag
	j.src(s, bound, &j.yields[i])
}

// candidate unifies one tuple with the step at depth i and, on success,
// goes on to the next step.
func (j *Join) candidate(i int, tuple []symtab.Sym, tag int) {
	if j.err != nil {
		return
	}
	if j.n++; j.n%pollEvery == 0 {
		if j.err = ctxpoll.Err(j.ctx); j.err != nil {
			return
		}
	}
	for _, f := range j.b.Steps[i].free {
		if !f.check {
			j.frame[f.slot] = tuple[f.pos]
		} else if j.frame[f.slot] != tuple[f.pos] {
			return
		}
	}
	j.step(i+1, max(tag, j.tags[i]))
}
