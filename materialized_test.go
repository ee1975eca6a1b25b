package chainlog

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"chainlog/internal/chaineval"
	"chainlog/internal/edb"
)

func TestMaterializeBasics(t *testing.T) {
	db := mustDB(t, `
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(a, b). edge(b, c).
`)
	p, err := db.Prepare("tc(?, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Materialize(); err == nil {
		t.Fatal("Materialize with missing parameter did not fail")
	}
	m, err := p.Materialize("a")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.Vars(); !reflect.DeepEqual(got, []string{"Y"}) {
		t.Fatalf("Vars = %v", got)
	}
	rows, epoch := m.Snapshot()
	if !reflect.DeepEqual(rows, [][]string{{"b"}, {"c"}}) {
		t.Fatalf("initial rows %v", rows)
	}
	if epoch != m.Epoch() || epoch != db.FactEpoch() {
		t.Fatalf("epoch %d, view %d, db %d", epoch, m.Epoch(), db.FactEpoch())
	}
	if db.Views() != 1 {
		t.Fatalf("Views = %d", db.Views())
	}

	db.Assert("edge", "c", "d")
	rows, _ = m.Snapshot()
	if !reflect.DeepEqual(rows, [][]string{{"b"}, {"c"}, {"d"}}) {
		t.Fatalf("after assert: %v", rows)
	}
	db.Retract("edge", "a", "b")
	rows, _ = m.Snapshot()
	if rows != nil && len(rows) != 0 {
		t.Fatalf("after cut: %v", rows)
	}
	st := m.Stats()
	if st.Maintained != 2 || st.Recomputed != 0 {
		t.Fatalf("stats %+v, want 2 maintained, 0 recomputed", st)
	}
	maintained, recomputed := db.ViewStats()
	if maintained != 2 || recomputed != 0 {
		t.Fatalf("db view stats %d/%d", maintained, recomputed)
	}
}

func TestMaterializeBooleanQuery(t *testing.T) {
	db := mustDB(t, `
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(a, b). edge(b, c).
`)
	p, err := db.Prepare("tc(?, ?)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Materialize("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.True() {
		t.Fatal("tc(a,c) should hold")
	}
	db.Retract("edge", "b", "c")
	if m.True() {
		t.Fatal("tc(a,c) should no longer hold")
	}
	db.Assert("edge", "a", "c")
	if !m.True() {
		t.Fatal("tc(a,c) should hold again")
	}
}

// A rule load recomputes open views and bumps the generation, so every
// outstanding change cursor resets.
func TestMaterializeRuleLoadRecomputes(t *testing.T) {
	db := mustDB(t, `
tc(X, Y) :- edge(X, Y).
edge(a, b). edge(b, c).
`)
	p, err := db.Prepare("tc(a, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, epoch, gen := m.State()
	if rows, _ := m.Snapshot(); !reflect.DeepEqual(rows, [][]string{{"b"}}) {
		t.Fatalf("pre-rule rows %v", rows)
	}
	if err := db.LoadProgram(`tc(X, Z) :- edge(X, Y), tc(Y, Z).`); err != nil {
		t.Fatal(err)
	}
	rows, _, gen2 := m.State()
	if !reflect.DeepEqual(rows, [][]string{{"b"}, {"c"}}) {
		t.Fatalf("post-rule rows %v", rows)
	}
	if gen2 == gen {
		t.Fatal("rule load did not bump the view generation")
	}
	if _, ok := m.Changes(epoch, gen); ok {
		t.Fatal("stale-generation cursor resumed; must force a reset")
	}
	if st := m.Stats(); st.Recomputed == 0 {
		t.Fatalf("stats %+v, want a recompute", st)
	}
}

// Falling further behind than the change ring retains forces a
// snapshot reset; within the ring, resume returns exactly the missed
// deltas once, in epoch order.
func TestMaterializeChangeLogResume(t *testing.T) {
	db := mustDB(t, `
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(r, s).
`)
	p, err := db.Prepare("tc(r, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, cursor, gen := m.State()

	db.Assert("edge", "s", "t")
	db.Assert("edge", "t", "u")
	db.Retract("edge", "t", "u")
	sets, ok := m.Changes(cursor, gen)
	if !ok {
		t.Fatal("in-window resume failed")
	}
	if len(sets) != 3 {
		t.Fatalf("got %d change sets, want 3", len(sets))
	}
	if !reflect.DeepEqual(sets[0].Added, [][]string{{"t"}}) || len(sets[0].Removed) != 0 {
		t.Fatalf("set 0: %+v", sets[0])
	}
	if !reflect.DeepEqual(sets[1].Added, [][]string{{"u"}}) {
		t.Fatalf("set 1: %+v", sets[1])
	}
	if !reflect.DeepEqual(sets[2].Removed, [][]string{{"u"}}) {
		t.Fatalf("set 2: %+v", sets[2])
	}
	for i := 1; i < len(sets); i++ {
		if sets[i].Epoch <= sets[i-1].Epoch {
			t.Fatal("change sets out of epoch order")
		}
	}

	// Overflow the ring: the old cursor must be refused.
	for i := 0; i < maxChangeLog+8; i++ {
		db.Assert("edge", "s", fmt.Sprintf("x%d", i))
		db.Retract("edge", "s", fmt.Sprintf("x%d", i))
	}
	if _, ok := m.Changes(cursor, gen); ok {
		t.Fatal("cursor beyond the retained ring resumed")
	}
	rows, cursor2, gen2 := m.State()
	if !reflect.DeepEqual(rows, [][]string{{"s"}, {"t"}}) {
		t.Fatalf("post-overflow rows %v", rows)
	}
	if sets, ok := m.Changes(cursor2, gen2); !ok || len(sets) != 0 {
		t.Fatalf("fresh cursor: ok=%v sets=%d", ok, len(sets))
	}
}

func TestMaterializeUpdatesWake(t *testing.T) {
	db := mustDB(t, `
tc(X, Y) :- edge(X, Y).
edge(a, b).
`)
	p, err := db.Prepare("tc(a, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ch := m.Updates()
	select {
	case <-ch:
		t.Fatal("Updates fired before any change")
	default:
	}
	// An irrelevant-to-the-answer mutation that still changes the
	// answer... this one does change it:
	db.Assert("edge", "a", "c")
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("Updates did not fire on an answer change")
	}
	// A mutation that cannot affect the answer must not wake waiters.
	ch = m.Updates()
	db.Assert("edge", "zz", "zz")
	select {
	case <-ch:
		t.Fatal("Updates fired for a no-effect mutation")
	default:
	}
	// Close wakes everything blocked on Updates.
	m.Close()
	select {
	case <-m.Updates():
	default:
		t.Fatal("Updates did not wake on Close")
	}
}

// Mutations far from the answer cone are absorbed incrementally, never
// by recompute, and leave the answer untouched.
func TestMaterializeIrrelevantChurn(t *testing.T) {
	db := mustDB(t, `
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
other(X, Y) :- blob(X, Y).
edge(a, b). edge(b, c).
`)
	p, err := db.Prepare("tc(a, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 50; i++ {
		db.Assert("blob", fmt.Sprintf("n%d", i), "x")
	}
	rows, _ := m.Snapshot()
	if !reflect.DeepEqual(rows, [][]string{{"b"}, {"c"}}) {
		t.Fatalf("rows changed under irrelevant churn: %v", rows)
	}
	if st := m.Stats(); st.Recomputed != 0 {
		t.Fatalf("irrelevant churn triggered a recompute: %+v", st)
	}
}

// A restore swaps the store under every live view: the view must be
// rebuilt over the new store, whether a binary snapshot or fact text was
// restored, and say so with a fresh generation.
func TestMaterializeRebuiltByRestore(t *testing.T) {
	const rules = `
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
`
	src := mustDB(t, rules+`edge(a, b). edge(b, c). edge(c, d).`)
	var text, bin bytes.Buffer
	if err := src.DumpFacts(&text); err != nil {
		t.Fatal(err)
	}
	if _, err := src.SnapshotBinary(&bin, nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		body    []byte
		restore func(*DB, io.Reader, uint64) error
	}{{"binary", bin.Bytes(), (*DB).RestoreFactsAuto}, {"text", text.Bytes(), (*DB).RestoreFacts}} {
		t.Run(tc.name, func(t *testing.T) {
			db := mustDB(t, rules+`edge(a, z).`)
			p, err := db.Prepare("tc(?, Y)", Options{})
			if err != nil {
				t.Fatal(err)
			}
			m, err := p.Materialize("a")
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			_, _, gen := m.State()
			const epoch = 41
			if err := tc.restore(db, bytes.NewReader(tc.body), epoch); err != nil {
				t.Fatal(err)
			}
			fresh, err := p.Run("a")
			if err != nil {
				t.Fatal(err)
			}
			rows, viewEpoch, viewGen := m.State()
			if !reflect.DeepEqual(rows, fresh.Rows) || len(rows) != 3 {
				t.Errorf("view rows %v, fresh Run %v", rows, fresh.Rows)
			}
			if viewEpoch != epoch || viewGen == gen {
				t.Errorf("view at epoch %d gen %d (was gen %d), want epoch %d and a new generation", viewEpoch, viewGen, gen, epoch)
			}
		})
	}
}

// TestStateReadsRowsAndGenerationTogether: a recompute that changes the
// answer without moving the fact epoch (a store swap here; a rule load or
// a replica's re-bootstrap likewise) must never let State pair the old
// rows with the new generation — a /v1/watch subscriber would resume from
// that cursor and keep the stale rows for good. One writer swaps between
// a store with one answer row and one with two and notes, after each
// swap, which generation goes with which row count; readers call State
// throughout and every pair they saw must be one the writer noted.
func TestStateReadsRowsAndGenerationTogether(t *testing.T) {
	db := mustDB(t, "p(X) :- q(X).\nq(a).")
	one := db.Store()
	two := edb.NewStore(db.SymTab())
	two.Insert("q", db.Intern("a"))
	two.Insert("q", db.Intern("b"))
	p, err := db.Prepare("p(X)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	type seen struct {
		rows int
		gen  uint64
	}
	rowsOf := map[uint64]int{} // written by the writer only, read after it is done
	note := func() {
		rows, _, gen := m.State()
		rowsOf[gen] = len(rows)
	}
	note()
	done := make(chan struct{})
	var wg sync.WaitGroup
	observed := make([][]seen, 2)
	for r := range observed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rows, _, gen := m.State()
				if n := len(observed[r]); n == 0 || observed[r][n-1] != (seen{len(rows), gen}) {
					observed[r] = append(observed[r], seen{len(rows), gen})
				}
			}
		}()
	}
	swaps := 20000
	if testing.Short() {
		swaps = 2000
	}
	for i := 0; i < swaps; i++ {
		if i%2 == 0 {
			db.SetStore(two)
		} else {
			db.SetStore(one)
		}
		note()
	}
	close(done)
	wg.Wait()
	for _, obs := range observed {
		for _, s := range obs {
			if want, ok := rowsOf[s.gen]; !ok || want != s.rows {
				t.Fatalf("State returned %d rows under generation %d, whose answer has %d (known %v)", s.rows, s.gen, want, ok)
			}
		}
	}
}

// TestViewMaintenanceRoute pins, per differential query, which views are
// the chain engine's kept visited set and which maintain the magic-sets
// fixpoint under ivm: a regular equation on the direct chain route, bound
// bf or fb, and nothing else. Both kinds answer every oracle, so a silent
// fallback to magic fails only here.
func TestViewMaintenanceRoute(t *testing.T) {
	chain := map[string]bool{
		"tc(?, Y)": true, "tc(X, ?)": true,
		"p(?, Y)": true, "q(?, Y)": true, "p(X, ?)": true, // mutual, closure
		"tcn(?, Y)": true, "tcn(X, ?)": true,
		// shapes' r writes its derived literal first: no binary-chain rule
		// as written, so r(?, Y) is not on the direct route.
	}
	// The same text is a chain view in one program and not in another.
	ivmIn := map[string]bool{"nonregular": true, "two-sided": true}
	for _, tmpl := range diffTemplates {
		db := NewDB()
		if err := db.LoadProgram(tmpl.src); err != nil {
			t.Fatal(err)
		}
		for _, q := range tmpl.queries {
			p, err := db.Prepare(q, Options{})
			if err != nil {
				t.Fatalf("%s: Prepare(%s): %v", tmpl.name, q, err)
			}
			args := make([]string, p.NumParams())
			for i := range args {
				args[i] = "c0"
			}
			m, err := p.Materialize(args...)
			if err != nil {
				t.Fatalf("%s: Materialize(%s): %v", tmpl.name, q, err)
			}
			_, got := m.view.(*chaineval.View)
			want := chain[q] && !ivmIn[tmpl.name]
			if got != want {
				t.Errorf("%s: %s maintained as a chain view = %v, want %v", tmpl.name, q, got, want)
			}
			m.Close()
		}
	}
}

// TestMaterializedApplyAllocs gates what the chain view of tc(t1, Y) over
// the depth-13 tree adds to a write: a leaf edge asserted and retracted
// again, against the same two writes with no view open. Each write's
// change set of one row costs three objects to render and publish — the
// names arena, its row slice and the broadcast channel — and the view
// itself allocates nothing once warm: its delta tuples are its own
// storage. The rest is the store's, read by the view's probes after each
// write: a probe of a key with writes pending since its CSR was built
// answers a fresh slice, and every 64 pairs the forward and reverse
// adjacency are rebuilt (edb's adjTailMax: the retraction of a tuple
// asserted since the build adds no pending write), which is nearly all
// of the bytes. The magic-sets view this replaced added 105
// objects per pair.
func TestMaterializedApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const depth = 13
	build := func() (*DB, *Prepared) {
		db := mustDB(t, "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n")
		d := &Delta{}
		for i := 1; 2*i+1 < 1<<depth; i++ {
			d.Assert("edge", fmt.Sprintf("t%d", i), fmt.Sprintf("t%d", 2*i))
			d.Assert("edge", fmt.Sprintf("t%d", i), fmt.Sprintf("t%d", 2*i+1))
		}
		if _, err := db.Apply(d); err != nil {
			t.Fatal(err)
		}
		p, err := db.Prepare("tc(?, Y)", Options{})
		if err != nil {
			t.Fatal(err)
		}
		return db, p
	}
	fringe := fmt.Sprintf("t%d", 1<<depth-1)
	const pairs = 256
	// cost returns the objects and bytes one assert-retract pair allocates.
	cost := func(db *DB) (objs, bytes float64) {
		toggle := func() {
			db.Assert("edge", fringe, "leaf")
			db.Retract("edge", fringe, "leaf")
		}
		for range pairs {
			toggle() // warm: the symbol, the buffers, the change log's ring
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range pairs {
			toggle()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / pairs, float64(after.TotalAlloc-before.TotalAlloc) / pairs
	}
	bare, _ := build()
	bareObjs, bareBytes := cost(bare)
	viewed, p := build()
	m, err := p.Materialize("t1")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, ok := m.view.(*chaineval.View); !ok {
		t.Fatalf("tc(t1, Y) is maintained as %T, want a chain view", m.view)
	}
	objs, bytes := cost(viewed)
	extraObjs, extraBytes := objs-bareObjs, bytes-bareBytes
	t.Logf("per pair: %.1f objects, %.0f B without the view; %.1f objects, %.0f B more with it", bareObjs, bareBytes, extraObjs, extraBytes)
	if extraObjs > 10.5 || extraBytes > 7<<10 {
		t.Errorf("the chain view adds %.1f objects and %.0f B per assert-retract pair, want at most 10.5 and 7 KB", extraObjs, extraBytes)
	}
}

// TestChainViewConcurrentReaders drives a chain view from one writer while
// readers take State, Stats and Changes throughout: every state a reader
// sees is one the view passed through (rows = 2 + the number of fringe
// edges then asserted, at most one), no fact write recomputes the view,
// and what a cursor resumes comes after it, in order.
func TestChainViewConcurrentReaders(t *testing.T) {
	db := mustDB(t, "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- e(X, Y), tc(Y, Z).\ne(a, b).\ne(b, c).\n")
	p, err := db.Prepare("tc(?, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Materialize("a")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rows, epoch, gen := m.State()
				if len(rows) != 2 && len(rows) != 3 {
					t.Errorf("State has %d rows, want 2 or 3", len(rows))
					return
				}
				if st := m.Stats(); st.Recomputed != 0 {
					t.Errorf("a fact write recomputed the view: %+v", st)
					return
				}
				// The writer may have run the ring past the cursor meanwhile;
				// what does resume comes after it, in order.
				sets, _ := m.Changes(epoch, gen)
				for i, cs := range sets {
					if cs.Epoch <= epoch || i > 0 && cs.Epoch <= sets[i-1].Epoch {
						t.Errorf("change set at epoch %d after cursor %d out of order", cs.Epoch, epoch)
						return
					}
				}
			}
		}()
	}
	writes := 2000
	if testing.Short() {
		writes = 200
	}
	for i := range writes {
		leaf := fmt.Sprintf("x%d", i)
		if _, err := db.Apply((&Delta{}).Assert("e", "c", leaf)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Apply((&Delta{}).Retract("e", "c", leaf)); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if rows, _ := m.Snapshot(); len(rows) != 2 {
		t.Fatalf("final rows %v, want [b c]", rows)
	}
	if _, ok := m.view.(*chaineval.View); !ok {
		t.Fatalf("tc(a, Y) is maintained as %T, want a chain view", m.view)
	}
}
