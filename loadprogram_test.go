package chainlog

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"chainlog/internal/symtab"
)

// loadRules is a same-generation and a transitive-closure program whose
// base relations are all binary.
const loadRules = "sg(X, Y) :- flat(X, Y).\nsg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).\n" +
	"tc(X, Y) :- e(X, Y).\ntc(X, Z) :- e(X, Y), tc(Y, Z).\n"

type loadFact struct{ pred, a, b string }

// randomLoadFacts draws up, down, flat and e facts over n constants,
// some of them twice, in one shuffled order, so the predicates' facts
// interleave in the text.
func randomLoadFacts(rng *rand.Rand, n int) []loadFact {
	c := func() string { return fmt.Sprintf("c%d", rng.Intn(n)) }
	var facts []loadFact
	for range 3 * n {
		facts = append(facts, loadFact{[]string{"up", "down", "flat", "e"}[rng.Intn(4)], c(), c()})
	}
	for range n / 2 {
		facts = append(facts, facts[rng.Intn(len(facts))])
	}
	rng.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
	return facts
}

func loadFactText(facts []loadFact) string {
	var b strings.Builder
	for _, f := range facts {
		fmt.Fprintf(&b, "%s(%s, %s).\n", f.pred, f.a, f.b)
	}
	return b.String()
}

// sameAnswers asks both databases pred(c, Y) for every predicate of
// loadRules and every constant below n, under every strategy, and fails on
// any difference in rows or error.
func sameAnswers(t *testing.T, loaded, asserted *DB, n int) {
	t.Helper()
	for _, pred := range []string{"sg", "tc", "up", "down", "flat", "e"} {
		for _, s := range Strategies() {
			p1, err1 := loaded.Prepare(pred+"(?, Y)", Options{Strategy: s})
			p2, err2 := asserted.Prepare(pred+"(?, Y)", Options{Strategy: s})
			if fmt.Sprint(err1) != fmt.Sprint(err2) {
				t.Fatalf("%s under %v: Prepare %v, asserted %v", pred, s, err1, err2)
			}
			if err1 != nil {
				continue
			}
			for i := range n {
				c := fmt.Sprintf("c%d", i)
				a1, err1 := p1.Run(c)
				a2, err2 := p2.Run(c)
				if fmt.Sprint(err1) != fmt.Sprint(err2) {
					t.Fatalf("%s(%s, Y) under %v: %v, asserted %v", pred, c, s, err1, err2)
				}
				if err1 == nil && !reflect.DeepEqual(a1.Rows, a2.Rows) {
					t.Fatalf("%s(%s, Y) under %v: loaded %v, asserted %v", pred, c, s, a1.Rows, a2.Rows)
				}
			}
		}
	}
}

// TestLoadedProgramAnswersLikeAsserted: a program's facts loaded as text
// — the binary relations the load creates built as CSR — answer every
// query under every strategy as the same facts asserted one at a time,
// with the predicates' facts interleaved and repeated, beside a relation
// that existed before the load, through a live view of a relation a
// facts-only load creates, and after writes that thaw what was built.
func TestLoadedProgramAnswersLikeAsserted(t *testing.T) {
	for seed := range int64(8) {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		facts := randomLoadFacts(rng, n)
		loaded, asserted := mustDB(t, loadRules), mustDB(t, loadRules)
		if seed%2 == 1 { // up exists before the load
			for _, db := range []*DB{loaded, asserted} {
				if _, err := db.Assert("up", "c0", "c1"); err != nil {
					t.Fatal(err)
				}
			}
		}
		// A view of tc, whose base relation e the facts-only load creates.
		views := make([]*Materialized, 2)
		for i, db := range []*DB{loaded, asserted} {
			p, err := db.Prepare("tc(?, Y)", Options{})
			if err != nil {
				t.Fatal(err)
			}
			if views[i], err = p.Materialize("c0"); err != nil {
				t.Fatal(err)
			}
			defer views[i].Close()
		}
		if err := loaded.LoadProgram(loadFactText(facts)); err != nil {
			t.Fatal(err)
		}
		for _, f := range facts {
			if _, err := asserted.Assert(f.pred, f.a, f.b); err != nil {
				t.Fatal(err)
			}
		}
		// Every relation the load created is dense enough to be built.
		for _, pred := range []string{"up", "down", "flat", "e"} {
			if created := pred != "up" || seed%2 == 0; loaded.store.Relation(pred).Frozen() != created {
				t.Fatalf("seed %d: %s created by the load %v, frozen %v", seed, pred, created, !created)
			}
		}
		sameAnswers(t, loaded, asserted, n)
		want, err := loaded.Query("tc(c0, Y)")
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range views {
			if rows, _ := m.Snapshot(); len(rows) != len(want.Rows) || len(rows) > 0 && !reflect.DeepEqual(rows, want.Rows) {
				t.Fatalf("seed %d: view of tc(c0, Y) holds %v, the query answers %v", seed, rows, want.Rows)
			}
		}
		if st := views[0].Stats(); st.Recomputed != 0 {
			t.Errorf("seed %d: the facts-only load made the view recompute (%+v), not absorb its facts", seed, st)
		}
		// Writes after the load: the built relations thaw.
		for _, f := range randomLoadFacts(rng, n)[:n] {
			for _, db := range []*DB{loaded, asserted} {
				if _, err := db.Assert(f.pred, f.a, f.b); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, f := range facts[:len(facts)/3] {
			for _, db := range []*DB{loaded, asserted} {
				db.Retract(f.pred, f.a, f.b)
			}
		}
		sameAnswers(t, loaded, asserted, n)
		for _, pred := range loaded.store.Relations() {
			if loaded.store.Relation(pred).Frozen() {
				t.Errorf("seed %d: %s is still frozen after writes to every relation", seed, pred)
			}
		}
	}
}

// TestLoadBuildsWhatItCreates: a binary relation a load creates stays in
// its built CSR layout until it is written; the facts of one that exists,
// of an n-ary relation, and a few facts naming a high symbol beside a
// large base are inserted.
func TestLoadBuildsWhatItCreates(t *testing.T) {
	db := mustDB(t, "old(a, b).\n"+loadFactText(randomLoadFacts(rand.New(rand.NewSource(1)), 50)))
	if err := db.LoadProgram(loadRules + "old(b, c).\nwide(a, b, c).\n"); err != nil {
		t.Fatal(err)
	}
	frozen := func(pred string) bool { return db.store.Relation(pred).Frozen() }
	for _, pred := range []string{"up", "down", "flat", "e"} {
		if !frozen(pred) {
			t.Errorf("%s, created by the load, is not frozen", pred)
		}
	}
	if frozen("old") || frozen("wide") {
		t.Errorf("old (existing when loaded into) frozen %v, wide (ternary) frozen %v; want both inserted", frozen("old"), frozen("wide"))
	}
	if _, err := db.Query("sg(c1, Y)"); err != nil {
		t.Fatal(err)
	}
	if !frozen("up") || !frozen("down") {
		t.Error("a query thawed a loaded relation")
	}
	if _, err := db.Assert("up", "c1", "c2"); err != nil {
		t.Fatal(err)
	}
	if frozen("up") || !frozen("down") {
		t.Errorf("after a write to up: up frozen %v, down frozen %v", frozen("up"), frozen("down"))
	}

	// Two facts beside a base of 30,000 names: two offset arrays over the
	// whole domain would cost 240 KB for 48 B of table.
	var csv strings.Builder
	for i := range 15_000 {
		fmt.Fprintf(&csv, "p%d,p%d\n", 2*i, 2*i+1)
	}
	big := NewDB()
	if _, err := big.IngestCSV(strings.NewReader(csv.String()), "base"); err != nil {
		t.Fatal(err)
	}
	if err := big.LoadProgram("few(p29999, p29998).\nfew(p1, p0).\n"); err != nil {
		t.Fatal(err)
	}
	if r := big.store.Relation("few"); r.Frozen() || r.Len() != 2 {
		t.Errorf("few: frozen %v, %d facts; want 2 facts in a table", r.Frozen(), r.Len())
	}
}

// TestLoadDropsTheText: once a program file is loaded, nothing the
// database keeps — relation names, rules, interned constants — holds its
// text alive.
func TestLoadDropsTheText(t *testing.T) {
	const pad = 8 << 20
	path := filepath.Join(t.TempDir(), "padded.dl")
	func() {
		var src strings.Builder
		src.WriteString(loadRules)
		src.WriteString(loadFactText(randomLoadFacts(rand.New(rand.NewSource(2)), 40)))
		for src.Len() < pad {
			src.WriteString("% padding that the parse skips, to make the text large\n")
		}
		src.WriteString("late(fresh1, fresh2).\nlater(X) :- late(X, Y).\n")
		if err := os.WriteFile(path, []byte(src.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}()
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	db, _, err := OpenFiles(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if after := heap(); after > before+pad/2 {
		t.Errorf("after the load the live heap grew by %d bytes: the %d-byte text is still reachable", after-before, pad)
	}
	runtime.KeepAlive(db)
}

// TestInternCopiesNames: the symbol table copies each name it interns, so
// names interned from bytes the caller then overwrites read back
// unchanged, through Intern, InternAll and LoadProgram, and no name a
// load interns points into its source text.
func TestInternCopiesNames(t *testing.T) {
	db := NewDB()
	st := db.SymTab()
	buf := []byte("alpha beta gamma")
	word := func(lo, hi int) string { return unsafe.String(&buf[lo], hi-lo) }
	alpha := st.Intern(word(0, 5))
	rest := st.InternAll([]string{word(6, 10), word(11, 16), word(0, 5)})
	copy(buf, strings.Repeat("#", len(buf)))

	src := []byte("up(ann, bob). flat(bob, cy). down(cy, dee).\n" +
		"sg(X, Y) :- flat(X, Y).\nsg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).\n")
	if err := db.LoadProgram(unsafe.String(&src[0], len(src))); err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(&src[0]))
	for s := symtab.Sym(1); int(s) < st.Len(); s++ {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(st.Name(s)))); p >= lo && p < lo+uintptr(len(src)) {
			t.Errorf("the name of Sym %d, %q, points into the loaded text", s, st.Name(s))
		}
	}
	copy(src, strings.Repeat("#", len(src)))

	want := map[symtab.Sym]string{alpha: "alpha", rest[0]: "beta", rest[1]: "gamma", rest[2]: "alpha"}
	for _, name := range []string{"ann", "bob", "cy", "dee"} {
		s, ok := st.Lookup(name)
		if !ok {
			t.Fatalf("LoadProgram did not intern %s", name)
		}
		want[s] = name
	}
	for s, name := range want {
		if got := st.Name(s); got != name {
			t.Errorf("Name(%d) = %q after its source bytes were overwritten, want %q", s, got, name)
		}
		if got, ok := st.Lookup(name); !ok || got != s {
			t.Errorf("Lookup(%s) = %d, %v, want %d", name, got, ok, s)
		}
	}
	ans, err := db.Query("sg(ann, Y)")
	if err != nil || !reflect.DeepEqual(ans.Rows, [][]string{{"dee"}}) {
		t.Errorf("sg(ann, Y) after the text was overwritten = %v, %v; want [[dee]]", ans, err)
	}
}
