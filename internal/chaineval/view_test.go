package chaineval

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"chainlog/internal/edb"
	"chainlog/internal/equations"
	"chainlog/internal/ivm"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
)

// viewFixture is one kept View beside the store it reads, so every write
// can be checked against a fresh run over the same store.
type viewFixture struct {
	t     *testing.T
	store *edb.Store
	sys   *equations.System
	pred  string
	a     symtab.Sym
	v     *View
}

// newViewFixture builds the view of pred(a, Y) over the rules of prog,
// after loading facts ("e a b", one per string); reverse keeps pred(X, a)
// instead, over the reversed system.
func newViewFixture(t *testing.T, prog, pred, a string, reverse bool, facts ...string) *viewFixture {
	t.Helper()
	st := symtab.NewTable()
	store := edb.NewStore(st)
	sys, err := equations.Transform(parser.MustParse(prog, st).Program)
	if err != nil {
		t.Fatal(err)
	}
	if reverse {
		sys = sys.Reverse()
	}
	f := &viewFixture{t: t, store: store, sys: sys, pred: pred}
	for _, fact := range facts {
		p, args := f.fact(fact)
		store.Insert(p, args...)
	}
	f.a = st.Intern(a)
	if f.v, err = NewView(sys, store, pred, f.a); err != nil {
		t.Fatal(err)
	}
	f.check(nil, nil, nil)
	return f
}

// fact parses "e a b", interning the constants.
func (f *viewFixture) fact(s string) (string, []symtab.Sym) {
	w := strings.Fields(s)
	args := make([]symtab.Sym, len(w)-1)
	for i, n := range w[1:] {
		args[i] = f.store.SymTab().Intern(n)
	}
	return w[0], args
}

// write deletes del and inserts ins in the store, as one net delta, folds
// it into the view and checks the result.
func (f *viewFixture) write(del, ins []string) (added, removed []string) {
	f.t.Helper()
	before := f.answers(f.v.Tuples())
	var facts [2][]ivm.Fact
	for k, list := range [2][]string{del, ins} {
		for _, s := range list {
			p, args := f.fact(s)
			if k == 0 && f.store.Remove(p, args...) || k == 1 && f.store.Insert(p, args...) {
				facts[k] = append(facts[k], ivm.Fact{Pred: p, Args: args})
			}
		}
	}
	a, r, err := f.v.ApplyBase(facts[1], facts[0])
	if err != nil {
		f.t.Fatal(err)
	}
	added, removed = f.answers(a), f.answers(r)
	f.check(before, added, removed)
	return added, removed
}

// answers names the second column of ts, sorted.
func (f *viewFixture) answers(ts [][]symtab.Sym) []string {
	out := []string{}
	for _, tu := range ts {
		if tu[0] != f.a {
			f.t.Fatalf("tuple %v does not start at the view's constant", tu)
		}
		out = append(out, f.store.SymTab().Name(tu[1]))
	}
	slices.Sort(out)
	return out
}

// check compares the view with a fresh run over the store — the answer,
// the node count, and, when before is given, the delta against it.
func (f *viewFixture) check(before, added, removed []string) {
	f.t.Helper()
	fresh, err := NewView(f.sys, f.store, f.pred, f.a)
	if err != nil {
		f.t.Fatal(err)
	}
	got, want := f.answers(f.v.Tuples()), f.answers(fresh.Tuples())
	if !slices.Equal(got, want) {
		f.t.Fatalf("kept view answers %v, a fresh run %v", got, want)
	}
	if g, w := f.v.Stats().Facts, fresh.Stats().Facts; g != w {
		f.t.Fatalf("kept view holds %d nodes, a fresh run %d", g, w)
	}
	res, err := New(f.sys, StoreSource{Store: f.store}, Options{}).Query(f.pred, f.a)
	if err != nil {
		f.t.Fatal(err)
	}
	if q := f.answers(pairsOf(f.a, res.Answers)); !slices.Equal(got, q) {
		f.t.Fatalf("kept view answers %v, Query %v", got, q)
	}
	if before == nil {
		return
	}
	for _, u := range added {
		if slices.Contains(before, u) || slices.Contains(removed, u) {
			f.t.Fatalf("added %s was there before, or is also removed (%v)", u, removed)
		}
	}
	for _, u := range removed {
		if !slices.Contains(before, u) || slices.Contains(got, u) {
			f.t.Fatalf("removed %s was not there before, or still is", u)
		}
	}
	for _, u := range got {
		if !slices.Contains(before, u) && !slices.Contains(added, u) {
			f.t.Fatalf("%s appeared but is not in added %v", u, added)
		}
	}
	for _, u := range before {
		if !slices.Contains(got, u) && !slices.Contains(removed, u) {
			f.t.Fatalf("%s disappeared but is not in removed %v", u, removed)
		}
	}
}

// pairsOf lays out Query's answers as a View's tuples.
func pairsOf(a symtab.Sym, us []symtab.Sym) [][]symtab.Sym {
	var out [][]symtab.Sym
	for _, u := range us {
		out = append(out, []symtab.Sym{a, u})
	}
	return out
}

const tcRules = "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- e(X, Y), tc(Y, Z).\n"

func TestViewDeleteInsideCycle(t *testing.T) {
	for _, reverse := range []bool{false, true} {
		t.Run(fmt.Sprint("reverse=", reverse), func(t *testing.T) {
			// a → b → c → d → b, and d → x: the cycle b c d lies between a
			// and x, and the reversed view asks what reaches x.
			start := map[bool]string{false: "a", true: "x"}[reverse]
			f := newViewFixture(t, tcRules, "tc", start, reverse, "e a b", "e b c", "e c d", "e d b", "e d x")
			f.write([]string{"e c d"}, nil)
			f.write(nil, []string{"e c d"})
			f.write([]string{"e d b"}, nil)
			f.write([]string{"e a b"}, nil)
			f.write(nil, []string{"e a b", "e d b"})
		})
	}
}

func TestViewDeleteRederives(t *testing.T) {
	// d has two visited predecessors, b and c: losing one keeps it and
	// everything below.
	f := newViewFixture(t, tcRules, "tc", "a", false, "e a b", "e a c", "e b d", "e c d", "e d e1")
	added, removed := f.write([]string{"e b d"}, nil)
	if len(added) != 0 || len(removed) != 0 {
		t.Fatalf("a rederived answer moved: added %v, removed %v", added, removed)
	}
	if f.v.Stats().Repairs != 1 {
		t.Fatalf("Repairs = %d, want 1", f.v.Stats().Repairs)
	}
	if _, removed := f.write([]string{"e c d"}, nil); !slices.Equal(removed, []string{"d", "e1"}) {
		t.Fatalf("removed %v, want [d e1]", removed)
	}
}

func TestViewDeleteAndReaddInOneWrite(t *testing.T) {
	// b loses its arc from a and gains one from c in the same write: the
	// answer b is removed and rederived, so it is in neither half.
	f := newViewFixture(t, tcRules, "tc", "a", false, "e a b", "e b z", "e a c")
	added, removed := f.write([]string{"e a b"}, []string{"e c b"})
	if len(added) != 0 || len(removed) != 0 {
		t.Fatalf("net-empty write: added %v, removed %v", added, removed)
	}
	// The same through a node the write itself makes reachable.
	added, removed = f.write([]string{"e c b"}, []string{"e a n", "e n b"})
	if !slices.Equal(added, []string{"n"}) || len(removed) != 0 {
		t.Fatalf("added %v, removed %v, want [n] and none", added, removed)
	}
}

func TestViewWriteInternsConstant(t *testing.T) {
	// write-watch's traffic: a fringe edge to a constant the write
	// interns, retracted by the next write. The constants are new symbols,
	// past every block the view hooked at build.
	f := newViewFixture(t, tcRules, "tc", "t1", false, "e t1 t2", "e t1 t3", "e t2 t4")
	for i := range 4 {
		del := []string{}
		if i > 0 {
			del = append(del, fmt.Sprintf("e t4 x%d", i-1))
		}
		added, removed := f.write(del, []string{fmt.Sprintf("e t4 x%d", i)})
		if !slices.Equal(added, []string{fmt.Sprintf("x%d", i)}) || len(removed) != min(i, 1) {
			t.Fatalf("write %d: added %v, removed %v", i, added, removed)
		}
	}
	// A symbol in a far block.
	for range 5000 {
		f.store.SymTab().Intern(fmt.Sprintf("pad%d", f.store.SymTab().Len()))
	}
	f.write(nil, []string{"e x3 far"})
	f.write([]string{"e t4 x3"}, nil)
}

func TestViewWriteToNewRelation(t *testing.T) {
	// p = e·f*: f has no relation when the view is built, so its edges
	// probe by name until a write creates it.
	const rules = "p(X, Y) :- e(X, Y).\np(X, Z) :- p(X, Y), f(Y, Z).\n"
	f := newViewFixture(t, rules, "p", "a", false, "e a b")
	if added, _ := f.write(nil, []string{"f b c", "f c d"}); !slices.Equal(added, []string{"c", "d"}) {
		t.Fatalf("added %v, want [c d]", added)
	}
	f.write([]string{"f b c"}, []string{"f b d"})
	f.write([]string{"e a b"}, nil)
}

// TestViewRandomWrites runs random writes of up to three deletes and three
// inserts over a small domain, where cycles, shared targets and
// re-derivations are common, against fresh runs.
func TestViewRandomWrites(t *testing.T) {
	progs := []struct{ rules, pred string }{
		{tcRules, "tc"},
		{"tcn(X, Y) :- e(X, Y).\ntcn(X, Y) :- tcn(X, Z), tcn(Z, Y).\n", "tcn"},
		{"p(X, Z) :- e(X, Y), q(Y, Z).\nq(X, Y) :- f(X, Y).\nq(X, Z) :- f(X, Y), p(Y, Z).\n", "p"},
		{"p(X, Y) :- e(X, Y).\np(X, Z) :- p(X, Y), f(Y, Z).\np(X, W) :- p(X, Y), e(Y, Z), p(Z, W).\n", "p"},
	}
	for seed := range 8 {
		for _, pr := range progs {
			for _, reverse := range []bool{false, true} {
				rng := rand.New(rand.NewSource(int64(seed)))
				f := newViewFixture(t, pr.rules, pr.pred, "n0", reverse)
				fact := func() string {
					return fmt.Sprintf("%s n%d n%d", []string{"e", "f"}[rng.Intn(2)], rng.Intn(6), rng.Intn(6))
				}
				for range 40 {
					var del, ins []string
					for range rng.Intn(4) {
						del = append(del, fact())
					}
					for range rng.Intn(4) {
						ins = append(ins, fact())
					}
					// A fact both deleted and inserted is no net change.
					ins = slices.DeleteFunc(ins, func(s string) bool { return slices.Contains(del, s) })
					f.write(del, ins)
				}
			}
		}
	}
}
