// Package binchain implements the Section 4 transformation of an adorned
// n-ary linear program into a binary-chain program over tuple terms.
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
// compiled once per traversal direction; this package supplies the base
// store's relations as its tuple source and projects the solutions into
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

	"chainlog/internal/adorn"
	"chainlog/internal/ast"
	"chainlog/internal/bottomup"
	"chainlog/internal/chaineval"
	"chainlog/internal/edb"
	"chainlog/internal/symtab"
)

// Transformed is the output of Transform: a binary-chain program, a
// demand-driven source for its virtual base relations, and the query over
// it.
type Transformed struct {
	// Adorned is the adorned program the transformation was built from.
	Adorned *adorn.Program
	// Program is the generated binary-chain program over bin-p^a and the
	// virtual base predicates.
	Program *ast.Program
	// QueryPred is the bin predicate to query (bin-q^a).
	QueryPred string
	// BoundArg is the interned tuple term t(c̄) of the query's bound
	// constants (possibly the empty tuple); symtab.None when the query is
	// a template with '?' holes among them.
	BoundArg symtab.Sym
	// FreeVars names the query's free variables in position order; each
	// answer tuple term decodes to values for these, in order.
	FreeVars []string
	// Source resolves the virtual base predicates by demand-driven joins
	// against the extensional store.
	Source chaineval.Source

	st       *symtab.Table
	base     *edb.Store
	numBound int
}

// Bind interns the tuple term t(c̄) for a fresh vector of bound-argument
// values, in query-literal position order. The transformation itself
// depends only on the query's binding pattern, so one Transformed may be
// reused — concurrently — for any number of bound-constant vectors; Bind
// supplies the per-query start term without redoing the transformation.
func (t *Transformed) Bind(bound []symtab.Sym) (symtab.Sym, error) {
	if len(bound) != t.numBound {
		return symtab.None, fmt.Errorf("binchain: got %d bound values, query pattern has %d", len(bound), t.numBound)
	}
	return t.st.InternTuple(bound), nil
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
	}
	vs := &virtualSource{st: t.st, base: base, rels: make(map[string]*vrel)}
	t.Source = vs

	for _, r := range ap.Rules {
		binHead := BinPredName(r.HeadPred())
		headBound := adorn.BoundArgs(r.Head, r.HeadAdorn)
		headFree := adorn.FreeArgs(r.Head, r.HeadAdorn)

		if r.Derived == nil {
			// bin-p^a(U, V) :- base-r(U, V).
			name := "base_" + r.ID
			vs.rels[name] = newVrel(headBound, headFree, r.AllBody)
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
		inIdentity := len(r.In) == 0 && termSeqEqual(headBound, derBound)
		// out-r(t(Z̄^f), t(X̄^f)) :- b(i+1), ..., bn.  Omitted when identity.
		outIdentity := len(r.Out) == 0 && termSeqEqual(derFree, headFree)

		var body []ast.Literal
		prev := ast.V("U")
		if !inIdentity {
			name := "in_" + r.ID
			vs.rels[name] = newVrel(headBound, derBound, r.In)
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
			vs.rels[name] = newVrel(derFree, headFree, r.Out)
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
	var boundVals []symtab.Sym
	for _, a := range ap.QueryLit.Args {
		if !a.IsVar() {
			boundVals = append(boundVals, a.Const)
		} else {
			t.FreeVars = append(t.FreeVars, a.Var)
		}
	}
	t.numBound = len(boundVals)
	// A template's '?' holes are not constants: its start term is Bind's,
	// per run, and compiling it interns nothing.
	if !slices.Contains(boundVals, symtab.None) {
		t.BoundArg = t.st.InternTuple(boundVals)
	}
	return t, nil
}

// DecodeAnswer expands an answer tuple term into the values of the
// query's free variables, in position order.
func (t *Transformed) DecodeAnswer(s symtab.Sym) []symtab.Sym {
	return t.st.TupleElems(s)
}

// DecodeAnswers expands and filters a result set: rows are dropped when a
// repeated free variable in the query would require two different values.
func (t *Transformed) DecodeAnswers(syms []symtab.Sym) [][]symtab.Sym {
	var rows [][]symtab.Sym
	first := map[string]int{}
	for i, v := range t.FreeVars {
		if _, ok := first[v]; !ok {
			first[v] = i
		}
	}
	for _, s := range syms {
		row := t.DecodeAnswer(s)
		if len(row) != len(t.FreeVars) {
			continue
		}
		ok := true
		for i, v := range t.FreeVars {
			if row[first[v]] != row[i] {
				ok = false
				break
			}
		}
		if ok {
			rows = append(rows, row)
		}
	}
	return rows
}

func termSeqEqual(a, b []ast.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].IsVar() != b[i].IsVar() {
			return false
		}
		if a[i].IsVar() {
			if a[i].Var != b[i].Var {
				return false
			}
		} else if a[i].Const != b[i].Const {
			return false
		}
	}
	return true
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

type virtualSource struct {
	st   *symtab.Table
	base *edb.Store
	rels map[string]*vrel
}

// activeDomain scans the store for every constant a fact holds. Only a
// join solution that leaves a projection variable unbound needs it —
// possible only for a non-chain program evaluated in unsafe mode: the
// rule out-r(t(Z̄f), t(X̄f)) :- ... may not bind all of X̄f, and
// declaratively such a variable ranges over the whole domain (the paper's
// counterexample) — so it is not worth a cache to keep fresh.
func (v *virtualSource) activeDomain() []symtab.Sym {
	var domain []symtab.Sym
	for _, name := range v.base.Relations() {
		v.base.Relation(name).Each(func(tuple []symtab.Sym) {
			domain = append(domain, tuple...)
		})
	}
	slices.Sort(domain)
	return slices.Compact(domain)
}

// ResolveRelation exposes the base store's relation for predicates the
// transformation did not virtualize, letting the evaluator probe them
// directly (see chaineval.RelationResolver). Virtual join relations
// resolve to nil and keep the by-name evaluation path.
func (v *virtualSource) ResolveRelation(pred string) *edb.Relation {
	if _, ok := v.rels[pred]; ok {
		return nil
	}
	return v.base.Relation(pred)
}

func (v *virtualSource) Successors(pred string, u symtab.Sym, work *edb.Counters) []symtab.Sym {
	r, ok := v.rels[pred]
	if !ok {
		// Fall back to a real binary relation of the store, so mixed
		// programs keep working.
		return chaineval.StoreSource{Store: v.base}.Successors(pred, u, work)
	}
	return v.eval(r.fwd, u, work)
}

func (v *virtualSource) Predecessors(pred string, u symtab.Sym, work *edb.Counters) []symtab.Sym {
	r, ok := v.rels[pred]
	if !ok {
		return chaineval.StoreSource{Store: v.base}.Predecessors(pred, u, work)
	}
	return v.eval(r.bwd, u, work)
}

// eval binds the direction's from arguments with the components of
// tuple term u, joins the body against the base store (bottomup's join,
// the store's relations as its tuple source), and projects the to
// arguments as tuple terms. The join's probes of the base store are
// tallied into work.
func (v *virtualSource) eval(d direction, u symtab.Sym, work *edb.Counters) []symtab.Sym {
	elems := v.st.TupleElems(u)
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
	emit := func(vs []symtab.Sym) { out = append(out, v.st.InternTuple(vs)) }
	candidates := func(s *bottomup.Step, bound []symtab.Sym, y *bottomup.Yield) {
		if r := v.base.Relation(s.Pred); r != nil {
			work.Lookups++
			work.Retrieved += int64(r.MatchEach(s.Mask, bound, y.Tuple))
		}
	}
	var vals []symtab.Sym
	// The traversal polls its own context between probes; the join is
	// given none, so Run cannot fail.
	_ = bottomup.NewJoin(nil, v.st).Run(d.body, frame, 0, candidates, func(frame []symtab.Sym, _ int) {
		vals = bottomup.Project(vals[:0], d.to, frame)
		if !slices.Contains(vals, symtab.None) {
			emit(vals)
			return
		}
		// An unbound projection variable ranges over the active domain.
		// (Reachable only for non-chain programs in unsafe mode.)
		enumerate(vals, 0, v.activeDomain(), emit)
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
	s := t.Program.Render(t.st)
	s += fmt.Sprintf("query: %s(%s, V)\n", t.QueryPred, t.st.Name(t.BoundArg))
	return s
}
