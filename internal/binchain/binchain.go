// Package binchain implements the Section 4 transformation of an adorned
// n-ary linear program into a binary-chain program over tuple terms.
// The tuple terms belong to one evaluation: its Run numbers them in a
// table of its own, so no query grows the database's symbol table, which
// names only the constants of facts and rules, and no term outlives the
// evaluation that met it.
//
// For every adorned predicate p^a it defines a binary predicate bin-p^a
// whose tuples are pairs (t(x̄^b), t(x̄^f)); for every adorned rule r it
// defines the nonrecursive binary predicates base-r, in-r and out-r, whose
// tuples are computed from joins of the rule's base literals. Following
// the paper, these relations are never precomputed: the evaluation
// algorithm retrieves their tuples "by demand", binding the first argument
// — whose components always carry bindings originating from the query —
// and joining the underlying extensional relations through indexes. The
// join is bottomup's rule-body join (bottomup/join.go), each body
// compiled once per traversal direction; this package opens the base
// store's relations as its candidates and projects the solutions into
// tuple terms.
//
// The resulting binary-chain program is handed to the Lemma 1
// transformation and evaluated with the graph-traversal engine; by
// Theorem 7 its answers coincide with the original program's whenever the
// adorned program is a chain program.
package binchain

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"chainlog/internal/adorn"
	"chainlog/internal/ast"
	"chainlog/internal/bottomup"
	"chainlog/internal/edb"
	"chainlog/internal/symtab"
)

// Transformed is the output of Transform: a binary-chain program, the
// virtual base relations it reads and the query over it — what the
// query's binding pattern fixes, and nothing an evaluation meets. It
// never changes, so any number of evaluations may share it, each on a
// Run of its own.
type Transformed struct {
	// Adorned is the adorned program the transformation was built from.
	Adorned *adorn.Program
	// Program is the generated binary-chain program over bin-p^a and the
	// virtual base predicates.
	Program *ast.Program
	// QueryPred is the bin predicate to query (bin-q^a).
	QueryPred string
	// FreeVars names the query's free variables in position order; each
	// answer tuple term decodes to values for these, in order.
	FreeVars []string

	st    *symtab.Table
	base  *edb.Store
	rels  map[string]*vrel
	width int          // of the widest tuple a term holds
	bound []symtab.Sym // the query's bound values, None at '?' holes
}

// Run is one evaluation of a Transformed: the chaineval.Source of its
// virtual relations, resolved by demand-driven joins against the
// extensional store, and the table of the tuple terms the evaluation
// meets. A term is not a symbol of the symbol table: it means something
// only to the Run that numbered it — its Bind, DecodeAnswer and probes —
// until Reset. The workers of one evaluation may share a Run; two
// evaluations may not.
type Run struct {
	t     *Transformed
	terms terms
}

// NewRun returns a run of t with no terms. It is a value, so a caller may
// keep it inside a structure of its own; its methods take its address.
func (t *Transformed) NewRun() Run { return Run{t: t, terms: newTerms(t.width)} }

// Reset empties the run's table for its next evaluation, keeping its
// capacity: no term of an earlier evaluation decodes in a later one. No
// probe of the run may be in flight.
func (r *Run) Reset() { r.terms.tab.Reset() }

// Bind returns the tuple term t(c̄) of the query's bound values, its '?'
// holes filled by params in order — one for each, as a prepared plan
// checks — numbering it in the run: the start term of its traversal.
func (r *Run) Bind(params []symtab.Sym) symtab.Sym {
	var buf [8]symtab.Sym
	vals := append(buf[:0], r.t.bound...)
	for i, v := range vals {
		if v == symtab.None {
			vals[i], params = params[0], params[1:]
		}
	}
	return r.terms.intern(vals)
}

// terms is a run's table of tuple terms. A row is the element count,
// then the elements, padded with symtab.None to the widest tuple of the
// adorned program; term s is the row in slot s-1, so symtab.None is no
// term, and an equal tuple is found again by probing the table. The
// workers of a run share it: adding a term takes the write lock, finding
// or decoding one the read lock.
type terms struct {
	mu    sync.RWMutex
	tab   *edb.Table
	width int
}

func newTerms(width int) terms { return terms{tab: edb.NewTable(1 + width), width: width} }

// intern returns the term t(elems...), adding it if new.
func (ts *terms) intern(elems []symtab.Sym) symtab.Sym {
	var buf [16]symtab.Sym
	row := append(append(buf[:0], symtab.Sym(len(elems))), elems...)
	for len(row) <= ts.width {
		row = append(row, symtab.None)
	}
	ts.mu.RLock()
	slot := ts.tab.Find(row)
	ts.mu.RUnlock()
	if slot < 0 {
		ts.mu.Lock()
		if slot = ts.tab.Find(row); slot < 0 {
			slot = ts.tab.Rows()
			ts.tab.Add(row)
		}
		ts.mu.Unlock()
	}
	return symtab.Sym(slot + 1)
}

// elems returns the elements of term s — empty, not nil, for t() — or nil
// when there is no such term. The slice aliases the table and holds until
// it is reset.
func (ts *terms) elems(s symtab.Sym) []symtab.Sym {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	if s <= symtab.None || int(s) > ts.tab.Rows() {
		return nil
	}
	row := ts.tab.Row(int(s) - 1)
	return row[1 : 1+row[0] : 1+row[0]]
}

// BinPredName returns the binary predicate name for an adorned predicate.
func BinPredName(p adorn.Pred) string { return "bin_" + p.Key() }

// Transform builds the binary-chain program for prog and query over the
// extensional store. It verifies the chain-program condition unless
// unsafe is set (the unsafe mode exists so tests can reproduce the
// paper's non-chain counterexample, where the transformed program
// computes a strict superset).
func Transform(prog *ast.Program, q ast.Query, base *edb.Store, unsafe bool) (*Transformed, error) {
	ap, err := adorn.Adorn(prog, q)
	if err != nil {
		return nil, err
	}
	if !unsafe {
		if err := ap.ChainCheck(); err != nil {
			return nil, err
		}
	}
	return FromAdorned(ap, base)
}

// FromAdorned builds the transformation from an already adorned program.
func FromAdorned(ap *adorn.Program, base *edb.Store) (*Transformed, error) {
	t := &Transformed{
		Adorned: ap,
		Program: &ast.Program{},
		st:      base.SymTab(),
		base:    base,
		rels:    make(map[string]*vrel),
	}
	virtual := func(name string, in, out []ast.Term, body []ast.Literal) {
		t.rels[name] = newVrel(in, out, body)
		t.width = max(t.width, len(in), len(out))
	}

	for _, r := range ap.Rules {
		binHead := BinPredName(r.HeadPred())
		headBound := adorn.BoundArgs(r.Head, r.HeadAdorn)
		headFree := adorn.FreeArgs(r.Head, r.HeadAdorn)

		if r.Derived == nil {
			// bin-p^a(U, V) :- base-r(U, V).
			name := "base_" + r.ID
			virtual(name, headBound, headFree, r.AllBody)
			t.Program.Rules = append(t.Program.Rules, ast.Rule{
				Head: ast.Atom(binHead, ast.V("U"), ast.V("V")),
				Body: []ast.Literal{ast.Atom(name, ast.V("U"), ast.V("V"))},
			})
			continue
		}

		dp, _ := r.DerivedPred()
		binBody := BinPredName(dp)
		derBound := adorn.BoundArgs(*r.Derived, r.DerivedAdorn)
		derFree := adorn.FreeArgs(*r.Derived, r.DerivedAdorn)

		// in-r(t(X̄^b), t(Z̄^b)) :- b1, ..., bi.   Omitted when it is the
		// identity rule in-r(t(X̄^b), t(X̄^b)) :- .
		inIdentity := len(r.In) == 0 && slices.Equal(headBound, derBound)
		// out-r(t(Z̄^f), t(X̄^f)) :- b(i+1), ..., bn.  Omitted when identity.
		outIdentity := len(r.Out) == 0 && slices.Equal(derFree, headFree)

		var body []ast.Literal
		prev := ast.V("U")
		if !inIdentity {
			name := "in_" + r.ID
			virtual(name, headBound, derBound, r.In)
			body = append(body, ast.Atom(name, prev, ast.V("U1")))
			prev = ast.V("U1")
		}
		var last ast.Term = ast.V("V")
		if !outIdentity {
			last = ast.V("V1")
		}
		body = append(body, ast.Atom(binBody, prev, last))
		if !outIdentity {
			name := "out_" + r.ID
			virtual(name, derFree, headFree, r.Out)
			body = append(body, ast.Atom(name, ast.V("V1"), ast.V("V")))
		}
		t.Program.Rules = append(t.Program.Rules, ast.Rule{
			Head: ast.Atom(binHead, ast.V("U"), ast.V("V")),
			Body: body,
		})
	}

	// The query literal of the transformed program:
	// bin-q^a(t(x̄^b), t(x̄^f)).
	t.QueryPred = BinPredName(ap.Query)
	for _, a := range ap.QueryLit.Args {
		if !a.IsVar() {
			t.bound = append(t.bound, a.Const)
		} else {
			t.FreeVars = append(t.FreeVars, a.Var)
		}
	}
	t.width = max(t.width, len(t.bound), len(t.FreeVars))
	return t, nil
}

// DecodeAnswer expands an answer tuple term into the values of the
// query's free variables, in position order, or nil when the run has not
// numbered s. The slice aliases the run's table: it must not be changed,
// and it holds until Reset.
func (r *Run) DecodeAnswer(s symtab.Sym) []symtab.Sym {
	return r.terms.elems(s)
}

// vrel is a virtual binary relation over tuple terms: given bindings for
// its in arguments (decoded from a tuple term), join the body against
// the extensional store and project the out arguments. Traversed
// backwards it binds the out arguments and projects the in arguments —
// joins are direction-agnostic, so the body is compiled once per
// direction.
type vrel struct {
	fwd, bwd direction
}

// direction is a vrel body compiled with the from arguments bound on
// entry. A nil body has no solution (see bottomup.Compile).
type direction struct {
	body     *bottomup.Body
	from, to []bottomup.Ref
}

func newVrel(in, out []ast.Term, body []ast.Literal) *vrel {
	compile := func(from, to []ast.Term) direction {
		b := bottomup.Compile(body, from, -1, nil)
		if b == nil {
			return direction{}
		}
		return direction{body: b, from: b.Refs(from), to: b.Refs(to)}
	}
	return &vrel{fwd: compile(in, out), bwd: compile(out, in)}
}

// activeDomain scans the store for every constant a fact holds. Only a
// join solution that leaves a projection variable unbound needs it —
// possible only for a non-chain program evaluated in unsafe mode: the
// rule out-r(t(Z̄f), t(X̄f)) :- ... may not bind all of X̄f, and
// declaratively such a variable ranges over the whole domain (the paper's
// counterexample) — so it is not worth a cache to keep fresh.
func (t *Transformed) activeDomain() []symtab.Sym {
	var domain []symtab.Sym
	for _, name := range t.base.Relations() {
		t.base.Relation(name).Each(func(tuple []symtab.Sym) {
			domain = append(domain, tuple...)
		})
	}
	slices.Sort(domain)
	return slices.Compact(domain)
}

// Successors and Predecessors probe a virtual relation. Every base
// predicate of a transformed program is one: the bin program's bodies
// name nothing else.
func (r *Run) Successors(pred string, u symtab.Sym, work *edb.Counters) []symtab.Sym {
	return r.eval(r.t.rels[pred].fwd, u, work)
}

func (r *Run) Predecessors(pred string, u symtab.Sym, work *edb.Counters) []symtab.Sym {
	return r.eval(r.t.rels[pred].bwd, u, work)
}

// eval binds the direction's from arguments with the components of
// tuple term u, joins the body against the base store (bottomup's join,
// reading the store's relations through cursors), and projects the to
// arguments as tuple terms. The join's probes of the base store are
// tallied into work.
func (r *Run) eval(d direction, u symtab.Sym, work *edb.Counters) []symtab.Sym {
	elems := r.terms.elems(u)
	if d.body == nil || elems == nil {
		return nil
	}
	frame := d.body.Frame(nil)
	if !bottomup.Bind(frame, d.from, elems) {
		return nil
	}
	// The projected tuple terms are deduplicated by sorting them once the
	// join is done.
	var out []symtab.Sym
	emit := func(vs []symtab.Sym) { out = append(out, r.terms.intern(vs)) }
	candidates := func(s *bottomup.Step, bound []symtab.Sym, c *bottomup.Candidates) {
		if rel := r.t.base.Relation(s.Pred); rel != nil {
			work.Lookups++
			c.Tally(&work.Retrieved)
			rel.Match(&c.Cursor, s.Mask, bound)
		}
	}
	var vals []symtab.Sym
	// The traversal polls its own context between probes; the join is
	// given none, so Run cannot fail.
	_ = bottomup.NewJoin(nil, r.t.st).Run(d.body, frame, 0, candidates, func(frame []symtab.Sym, _ int) {
		vals = bottomup.Project(vals[:0], d.to, frame)
		if !slices.Contains(vals, symtab.None) {
			emit(vals)
			return
		}
		// An unbound projection variable ranges over the active domain.
		// (Reachable only for non-chain programs in unsafe mode.)
		enumerate(vals, 0, r.t.activeDomain(), emit)
	})
	slices.Sort(out)
	return slices.Compact(out)
}

// enumerate expands every still-unbound position of vals over domain,
// calling emit for each completion.
func enumerate(vals []symtab.Sym, i int, domain []symtab.Sym, emit func([]symtab.Sym)) {
	if i == len(vals) {
		emit(vals)
		return
	}
	if vals[i] != symtab.None {
		enumerate(vals, i+1, domain, emit)
		return
	}
	for _, d := range domain {
		vals[i] = d
		enumerate(vals, i+1, domain, emit)
	}
	vals[i] = symtab.None
}

// Describe renders the transformed program and virtual relation
// definitions for golden tests and the CLI's -explain mode.
func (t *Transformed) Describe() string {
	arg := "∅"
	if !slices.Contains(t.bound, symtab.None) {
		arg = "t(" + strings.Join(t.st.AppendNames(nil, t.bound), ",") + ")"
	}
	return t.Program.Render(t.st) + fmt.Sprintf("query: %s(%s, V)\n", t.QueryPred, arg)
}
