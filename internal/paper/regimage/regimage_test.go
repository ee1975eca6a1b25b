package regimage

import (
	"reflect"
	"testing"
	"testing/quick"

	"chainlog/internal/chaineval"
	"chainlog/internal/edb"
	"chainlog/internal/expr"
	"chainlog/internal/paper/rel"
	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

func TestImageBasics(t *testing.T) {
	st := symtab.NewTable()
	store := edb.NewStore(st)
	a, b, c := st.Intern("a"), st.Intern("b"), st.Intern("c")
	store.Insert("e", a, b)
	store.Insert("e", b, c)
	src := chaineval.StoreSource{Store: store}

	ev := New(expr.MustParse("e"), src)
	if got := ev.Image(a); len(got) != 1 || got[0] != b {
		t.Fatalf("e(a) = %v", got)
	}
	ev = New(expr.MustParse("e.e"), src)
	if got := ev.Image(a); len(got) != 1 || got[0] != c {
		t.Fatalf("e.e(a) = %v", got)
	}
	ev = New(expr.MustParse("e*"), src)
	if got := ev.Image(a); len(got) != 3 {
		t.Fatalf("e*(a) = %v", got)
	}
	ev = New(expr.MustParse("e~"), src)
	if got := ev.Image(c); len(got) != 1 || got[0] != b {
		t.Fatalf("e~(c) = %v", got)
	}
	ev = New(expr.MustParse("id"), src)
	if got := ev.Image(a); len(got) != 1 || got[0] != a {
		t.Fatalf("id(a) = %v", got)
	}
	ev = New(expr.MustParse("0"), src)
	if got := ev.Image(a); len(got) != 0 {
		t.Fatalf("0(a) = %v", got)
	}
}

func TestImageSetUnionsSources(t *testing.T) {
	st := symtab.NewTable()
	store := edb.NewStore(st)
	a, b, c, d := st.Intern("a"), st.Intern("b"), st.Intern("c"), st.Intern("d")
	store.Insert("e", a, c)
	store.Insert("e", b, d)
	ev := New(expr.MustParse("e"), chaineval.StoreSource{Store: store})
	got := ev.ImageSet([]symtab.Sym{a, b})
	if len(got) != 2 {
		t.Fatalf("ImageSet = %v", got)
	}
}

func TestClosure(t *testing.T) {
	st := symtab.NewTable()
	w := workload.Cyclic(st, 3, 4)
	ev := New(expr.MustParse("up"), chaineval.StoreSource{Store: w.Store})
	cl := ev.Closure([]symtab.Sym{w.Query})
	if len(cl) != 3 {
		t.Fatalf("up-closure on a 3-cycle = %d nodes", len(cl))
	}
}

// Property: Image agrees with the materialized oracle on random data.
func TestImageMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		st := symtab.NewTable()
		w := workload.RandomTree(st, 15, 0.5, seed)
		src := chaineval.StoreSource{Store: w.Store}
		up := relFrom(w.Store, "up")
		down := relFrom(w.Store, "down")
		flat := relFrom(w.Store, "flat")
		env := rel.Env{"up": up, "down": down, "flat": flat}
		universe := activeDomain(w.Store)

		for _, es := range []string{"up", "up.flat", "up*.down", "flat U up.down"} {
			e := expr.MustParse(es)
			ev := New(e, src)
			oracle := rel.Eval(e, env, universe)
			for _, u := range universe {
				if !reflect.DeepEqual(ev.Image(u), oracle.Successors(u)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func relFrom(store *edb.Store, pred string) *rel.Rel {
	out := rel.New()
	r := store.Relation(pred)
	if r == nil {
		return out
	}
	for i := 0; i < r.Len(); i++ {
		tu := r.Tuple(i)
		out.Add(tu[0], tu[1])
	}
	return out
}

func activeDomain(store *edb.Store) []symtab.Sym {
	set := map[symtab.Sym]bool{}
	for _, name := range store.Relations() {
		r := store.Relation(name)
		for i := 0; i < r.Len(); i++ {
			for _, s := range r.Tuple(i) {
				set[s] = true
			}
		}
	}
	out := make([]symtab.Sym, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	return out
}
