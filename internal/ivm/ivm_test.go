package ivm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"chainlog/internal/ast"
	"chainlog/internal/edb"
	"chainlog/internal/naiveeval"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
)

// tupleKey packs a tuple into a string: the tests' own set and sort key.
func tupleKey(row []symtab.Sym) string {
	var b []byte
	for _, s := range row {
		v := uint32(s)
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// harness drives a View and the naiveeval oracle through the same base
// mutation schedule and compares the query predicate after every step.
type harness struct {
	t      *testing.T
	st     *symtab.Table
	prog   *ast.Program
	pred   string
	view   *View
	src    *edb.Store       // the authoritative base store
	oracle *naiveeval.Facts // mirror of src for naiveeval
	live   []Fact           // base facts currently present (for random picks)
}

func newHarness(t *testing.T, src string, pred string) *harness {
	t.Helper()
	st := symtab.NewTable()
	res, err := parser.Parse(src, st)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	store := edb.NewStore(st)
	oracle := naiveeval.NewFacts()
	h := &harness{t: t, st: st, prog: res.Program, pred: pred, src: store, oracle: oracle}
	for _, f := range res.Facts {
		if store.Insert(f.Pred, f.Args...) {
			oracle.Assert(f.Pred, f.Args)
			h.live = append(h.live, Fact{Pred: f.Pred, Args: f.Args})
		}
	}
	v, err := NewView(res.Program, pred, store, st)
	if err != nil {
		t.Fatalf("NewView: %v", err)
	}
	h.view = v
	h.check("initial build")
	return h
}

// apply folds a net delta into the store, the oracle and the view, and
// cross-checks the view's reported answer delta against the oracle.
func (h *harness) apply(ins, del []Fact) {
	h.t.Helper()
	before := h.tupleSet(h.view.Tuples())
	for _, f := range del {
		if !h.src.Remove(f.Pred, f.Args...) {
			h.t.Fatalf("delta not net: deleting absent %s%v", f.Pred, f.Args)
		}
		h.oracle.Retract(f.Pred, f.Args)
		for i, lf := range h.live {
			if lf.Pred == f.Pred && tupleKey(lf.Args) == tupleKey(f.Args) {
				h.live = append(h.live[:i], h.live[i+1:]...)
				break
			}
		}
	}
	for _, f := range ins {
		if !h.src.Insert(f.Pred, f.Args...) {
			h.t.Fatalf("delta not net: inserting present %s%v", f.Pred, f.Args)
		}
		h.oracle.Assert(f.Pred, f.Args)
		h.live = append(h.live, f)
	}
	added, removed, err := h.view.ApplyBase(ins, del)
	if err != nil {
		h.t.Fatalf("ApplyBase(+%d -%d): %v", len(ins), len(del), err)
	}
	h.check(fmt.Sprintf("after +%d -%d", len(ins), len(del)))

	// The reported delta must transform the old tuple set into the new.
	after := h.tupleSet(h.view.Tuples())
	for _, t := range added {
		k := tupleKey(t)
		if before[k] {
			h.t.Fatalf("added %v was already present", h.names(t))
		}
		if !after[k] {
			h.t.Fatalf("added %v is not in the new state", h.names(t))
		}
		delete(before, k)
		delete(after, k)
	}
	for _, t := range removed {
		k := tupleKey(t)
		if !before[k] {
			h.t.Fatalf("removed %v was not present", h.names(t))
		}
		if after[k] {
			h.t.Fatalf("removed %v is still in the new state", h.names(t))
		}
		delete(before, k)
	}
	for k := range before {
		if !after[k] {
			h.t.Fatalf("tuple disappeared without being reported removed")
		}
		delete(after, k)
	}
	if len(after) != 0 {
		h.t.Fatalf("%d tuple(s) appeared without being reported added", len(after))
	}
}

// check compares the view's query-predicate tuples against a from-scratch
// naiveeval fixpoint.
func (h *harness) check(when string) {
	h.t.Helper()
	got := h.sorted(h.view.Tuples())
	q := h.allFreeQuery()
	want := h.sorted(naiveeval.Answer(h.prog, h.oracle, h.st, q))
	if !reflect.DeepEqual(got, want) {
		h.t.Fatalf("%s: view %s disagrees with oracle\n got: %v\nwant: %v",
			when, h.pred, h.rows(got), h.rows(want))
	}
	h.checkState(when)
}

// checkState recounts every derived fact's support from scratch — a
// firing is counted when its derived body facts all sit strictly below
// its head — and compares with the state the view keeps beside the
// tables' slots: the counts are exact, no live fact is unsupported, no
// head is missing, and no pass left a delta or a wave mark behind.
func (h *harness) checkState(when string) {
	h.t.Helper()
	v := h.view
	want := map[*relation][]int32{}
	for pred, d := range v.der {
		if len(d.state) != d.tab.Rows() || len(d.delta)+len(d.next) != 0 {
			h.t.Fatalf("%s: %s has %d states for %d slots, %d+%d delta slots left", when, pred, len(d.state), d.tab.Rows(), len(d.delta), len(d.next))
		}
		want[d] = make([]int32, len(d.state))
	}
	for ri := range v.plans {
		v.enumerate(ri, enumSpec{pin: -1, maxHAfter: v.maxHeight}, func(d *relation, head []symtab.Sym, maxDer int) {
			s := d.tab.Find(head)
			if s < 0 {
				h.t.Fatalf("%s: rule %d fires for %v, which the view does not hold", when, ri, h.names(head))
			}
			if maxDer < d.state[s].height {
				want[d][s]++
			}
		})
	}
	for pred, d := range v.der {
		d.tab.EachSlot(0, nil, 0, d.tab.Rows(), func(slot int, row []symtab.Sym) {
			st := d.state[slot]
			if st.count != want[d][slot] || st.count < 1 || st.wave || st.height < 1 || st.height > v.maxHeight {
				h.t.Fatalf("%s: %s%v has state %+v, recounted support %d (max height %d)", when, pred, h.names(row), st, want[d][slot], v.maxHeight)
			}
		})
	}
}

func (h *harness) allFreeQuery() ast.Query {
	var arity int
	for _, r := range h.prog.Rules {
		if r.Head.Pred == h.pred {
			arity = len(r.Head.Args)
		}
	}
	if arity == 0 {
		if r := h.src.Relation(h.pred); r != nil {
			arity = r.Arity()
		}
	}
	args := make([]ast.Term, arity)
	for i := range args {
		args[i] = ast.Term{Var: fmt.Sprintf("V%d", i)}
	}
	return ast.Query{Literal: ast.Literal{Pred: h.pred, Args: args}}
}

func (h *harness) tupleSet(ts [][]symtab.Sym) map[string]bool {
	out := map[string]bool{}
	for _, t := range ts {
		out[tupleKey(t)] = true
	}
	return out
}

func (h *harness) sorted(ts [][]symtab.Sym) [][]symtab.Sym {
	out := make([][]symtab.Sym, len(ts))
	copy(out, ts)
	sort.Slice(out, func(i, j int) bool { return tupleKey(out[i]) < tupleKey(out[j]) })
	return out
}

func (h *harness) names(t []symtab.Sym) []string {
	row := make([]string, len(t))
	for i, s := range t {
		row[i] = h.st.Name(s)
	}
	return row
}

func (h *harness) rows(ts [][]symtab.Sym) [][]string {
	out := make([][]string, len(ts))
	for i, t := range ts {
		out[i] = h.names(t)
	}
	return out
}

func (h *harness) sym(name string) symtab.Sym { return h.st.Intern(name) }

func TestLinearTransitiveClosure(t *testing.T) {
	h := newHarness(t, `
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(a, b). edge(b, c). edge(c, d).
`, "tc")
	e := func(a, b string) Fact {
		return Fact{Pred: "edge", Args: []symtab.Sym{h.sym(a), h.sym(b)}}
	}
	h.apply([]Fact{e("d", "e")}, nil)                 // extend the chain
	h.apply(nil, []Fact{e("b", "c")})                 // cut it in the middle
	h.apply([]Fact{e("b", "c")}, nil)                 // restore
	h.apply([]Fact{e("e", "a")}, nil)                 // close a cycle
	h.apply(nil, []Fact{e("c", "d")})                 // break the cycle
	h.apply([]Fact{e("a", "c")}, []Fact{e("a", "b")}) // mixed delta
}

// TestCycleRetraction exercises the DRed repair: facts in a cycle keep
// positive-looking support through the cycle even when the external
// derivation is gone, so retraction must overdelete and rederive.
func TestCycleRetraction(t *testing.T) {
	h := newHarness(t, `
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(a, b). edge(b, c). edge(c, a). edge(c, d).
`, "tc")
	e := func(a, b string) Fact {
		return Fact{Pred: "edge", Args: []symtab.Sym{h.sym(a), h.sym(b)}}
	}
	h.apply(nil, []Fact{e("c", "a")}) // open the cycle
	h.apply([]Fact{e("c", "a")}, nil) // close it again
	h.apply(nil, []Fact{e("a", "b")})
	h.apply(nil, []Fact{e("b", "c")})
	if h.view.Stats().Repairs == 0 {
		t.Fatalf("expected at least one DRed repair on cycle retraction")
	}
}

func TestNonlinearRecursion(t *testing.T) {
	h := newHarness(t, `
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), path(Y, Z).
edge(a, b). edge(b, c). edge(c, d). edge(d, e).
`, "path")
	e := func(a, b string) Fact {
		return Fact{Pred: "edge", Args: []symtab.Sym{h.sym(a), h.sym(b)}}
	}
	h.apply([]Fact{e("e", "b")}, nil)
	h.apply(nil, []Fact{e("c", "d")})
	h.apply([]Fact{e("c", "d"), e("a", "e")}, []Fact{e("a", "b")})
	h.apply(nil, []Fact{e("e", "b"), e("d", "e")})
}

func TestSameGeneration(t *testing.T) {
	h := newHarness(t, `
sg(X, X) :- person(X).
sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
person(a). person(b). person(c). person(d). person(e).
par(b, a). par(c, a). par(d, b). par(e, c).
`, "sg")
	p := func(a, b string) Fact {
		return Fact{Pred: "par", Args: []symtab.Sym{h.sym(a), h.sym(b)}}
	}
	person := func(a string) Fact {
		return Fact{Pred: "person", Args: []symtab.Sym{h.sym(a)}}
	}
	h.apply([]Fact{person("f"), p("f", "b")}, nil)
	h.apply(nil, []Fact{p("d", "b")})
	h.apply([]Fact{p("d", "c")}, []Fact{p("e", "c")})
	h.apply(nil, []Fact{person("a")})
}

func TestBuiltinBody(t *testing.T) {
	h := newHarness(t, `
lt(X, Y) :- num(X), num(Y), X < Y.
reach(X, Y) :- lt(X, Y).
reach(X, Z) :- lt(X, Y), reach(Y, Z).
num(n1). num(n2). num(n3).
`, "reach")
	n := func(a string) Fact {
		return Fact{Pred: "num", Args: []symtab.Sym{h.sym(a)}}
	}
	h.apply([]Fact{n("n4")}, nil)
	h.apply(nil, []Fact{n("n2")})
	h.apply([]Fact{n("n0")}, []Fact{n("n3")})
}

// TestUnboundBuiltinVariable: no atom binds Y, so the comparison can
// never be evaluated and the rule derives nothing — at the initial build,
// under insertion and under deletion (the harness checks each state
// against naiveeval).
func TestUnboundBuiltinVariable(t *testing.T) {
	h := newHarness(t, `
p(X) :- q(X), X < Y.
q(a). q(b).
`, "p")
	q := func(a string) Fact {
		return Fact{Pred: "q", Args: []symtab.Sym{h.sym(a)}}
	}
	h.apply([]Fact{q("c")}, nil)
	h.apply(nil, []Fact{q("a")})
	if got := h.view.Tuples(); len(got) != 0 {
		t.Fatalf("view holds %v, want nothing", h.rows(got))
	}
}

// TestBaseView covers the degenerate case: the query predicate has no
// rules, so the view just mirrors the base relation.
func TestBaseView(t *testing.T) {
	h := newHarness(t, `
tc(X, Y) :- edge(X, Y).
edge(a, b). edge(b, c).
`, "edge")
	e := func(a, b string) Fact {
		return Fact{Pred: "edge", Args: []symtab.Sym{h.sym(a), h.sym(b)}}
	}
	h.apply([]Fact{e("c", "d")}, nil)
	h.apply(nil, []Fact{e("a", "b")})
	h.apply([]Fact{e("a", "b")}, []Fact{e("b", "c")})
}

// TestMagicSeedRule covers programs with empty-body rules, the shape the
// magic rewrite emits for query seeds.
func TestMagicSeedRule(t *testing.T) {
	st := symtab.NewTable()
	res, err := parser.Parse(`
tc(X, Y) :- m_tc(X), edge(X, Y).
tc(X, Z) :- m_tc(X), edge(X, Y), tc(Y, Z).
m_tc(Y) :- m_tc(X), edge(X, Y).
edge(a, b). edge(b, c). edge(c, d). edge(z, a).
`, st)
	if err != nil {
		t.Fatal(err)
	}
	seed := ast.Rule{Head: ast.Literal{Pred: "m_tc", Args: []ast.Term{{Const: st.Intern("a")}}}}
	res.Program.Rules = append(res.Program.Rules, seed)
	store := edb.NewStore(st)
	oracle := naiveeval.NewFacts()
	h := &harness{t: t, st: st, prog: res.Program, pred: "tc", src: store, oracle: oracle}
	for _, f := range res.Facts {
		store.Insert(f.Pred, f.Args...)
		oracle.Assert(f.Pred, f.Args)
	}
	v, err := NewView(res.Program, "tc", store, st)
	if err != nil {
		t.Fatalf("NewView: %v", err)
	}
	h.view = v
	h.check("initial build")
	e := func(a, b string) Fact {
		return Fact{Pred: "edge", Args: []symtab.Sym{st.Intern(a), st.Intern(b)}}
	}
	h.apply([]Fact{e("d", "e")}, nil)
	h.apply(nil, []Fact{e("b", "c")})
	h.apply([]Fact{e("b", "x"), e("x", "c")}, nil)
	h.apply(nil, []Fact{e("a", "b")})
}

// TestRandomSchedules is the workhorse: random graphs, random net
// deltas, every step cross-checked against the oracle.
func TestRandomSchedules(t *testing.T) {
	programs := []struct {
		name, src, pred string
	}{
		{"tc", `
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
`, "tc"},
		{"nonlinear", `
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), path(Y, Z).
`, "path"},
		{"samegen", `
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, XP), sg(XP, YP), down(YP, Y).
`, "sg"},
	}
	preds := map[string][]string{
		"tc":        {"edge"},
		"nonlinear": {"edge"},
		"samegen":   {"flat", "up", "down"},
	}
	const nodes = 8
	for _, p := range programs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 12; trial++ {
				h := newHarness(t, p.src, p.pred)
				randomFact := func() Fact {
					pr := preds[p.name][rng.Intn(len(preds[p.name]))]
					return Fact{Pred: pr, Args: []symtab.Sym{
						h.sym(fmt.Sprintf("n%d", rng.Intn(nodes))),
						h.sym(fmt.Sprintf("n%d", rng.Intn(nodes))),
					}}
				}
				for step := 0; step < 25; step++ {
					var ins, del []Fact
					seen := map[string]bool{}
					// Deletions: sample distinct currently-live facts.
					nDel := rng.Intn(3)
					for i := 0; i < nDel && len(h.live) > 0; i++ {
						f := h.live[rng.Intn(len(h.live))]
						k := f.Pred + "\x00" + tupleKey(f.Args)
						if seen[k] {
							continue
						}
						seen[k] = true
						del = append(del, f)
					}
					// Insertions: sample facts not live and not being deleted.
					nIns := rng.Intn(3)
					for i := 0; i < nIns; i++ {
						f := randomFact()
						k := f.Pred + "\x00" + tupleKey(f.Args)
						if seen[k] {
							continue
						}
						if r := h.src.Relation(f.Pred); r != nil && r.Contains(f.Args) {
							continue
						}
						seen[k] = true
						ins = append(ins, f)
					}
					h.apply(ins, del)
				}
			}
		})
	}
}

// TestChurnKeepsSlotsBounded toggles an edge in the middle of a view's
// cone 10,000 times: every retraction overdeletes the closure across the
// cut and every re-assertion derives it again, so each round tombstones
// and re-appends about half the view. The derived tables' slot count must
// stay within a constant factor of the live facts — tombstones are
// squeezed out once they dominate, the state slice moving in step — and
// the state must still recount exactly.
func TestChurnKeepsSlotsBounded(t *testing.T) {
	const n = 16
	src := "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n"
	for i := 0; i+1 < n; i++ {
		src += fmt.Sprintf("edge(c%d, c%d). ", i, i+1)
	}
	h := newHarness(t, src, "tc")
	cut := []Fact{{Pred: "edge", Args: []symtab.Sym{h.sym(fmt.Sprintf("c%d", n/2)), h.sym(fmt.Sprintf("c%d", n/2+1))}}}
	live := h.view.Stats().Facts
	repacks := 0
	for round := 0; round < 10000; round++ {
		for _, retract := range []bool{true, false} {
			before := h.view.der["tc"].tab.Rows()
			var err error
			if retract {
				h.src.Remove("edge", cut[0].Args...)
				h.oracle.Retract("edge", cut[0].Args)
				_, _, err = h.view.ApplyBase(nil, cut)
			} else {
				h.src.Insert("edge", cut[0].Args...)
				h.oracle.Assert("edge", cut[0].Args)
				_, _, err = h.view.ApplyBase(cut, nil)
			}
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			for pred, d := range h.view.der {
				rows, facts := d.tab.Rows(), d.tab.Len()
				if rows > 2*facts+64 {
					t.Fatalf("round %d: %s holds %d slots for %d live facts", round, pred, rows, facts)
				}
				if rows < before {
					repacks++
				}
			}
		}
		if round%1000 == 999 {
			h.check(fmt.Sprintf("after %d rounds", round+1))
		}
	}
	if got := h.view.Stats(); got.Facts != live || got.Repairs != 10000 {
		t.Fatalf("after the churn: %+v, want %d facts and 10000 repairs", got, live)
	}
	if repacks == 0 {
		t.Fatal("10,000 rounds of overdeletion never repacked a table")
	}
}
