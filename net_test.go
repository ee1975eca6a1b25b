package chainlog

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// On random deltas — duplicates, flips, retracts of absent facts and of
// unknown constants, facts of a relation the delta creates, wrong
// arities — Apply's net is checked against a replay of the ops on a set,
// and a refused delta changes nothing.
func TestNetMatchesApply(t *testing.T) {
	db := mustDB(t, "e(a, b). e(b, c).")
	model := map[string]bool{"e(a,b)": true, "e(b,c)": true}
	rng := rand.New(rand.NewSource(1))
	names := []string{"a", "b", "c", "fresh1", "fresh2"}
	for round := 0; round < 400; round++ {
		d := &Delta{}
		next := map[string]bool{}
		for k, v := range model {
			next[k] = v
		}
		refused := false
		for range 1 + rng.Intn(5) {
			pred := []string{"e", "n"}[rng.Intn(2)]
			args := []string{names[rng.Intn(len(names))], names[rng.Intn(len(names))]}
			if pred == "e" && rng.Intn(10) == 0 {
				args = args[:1] // a wrong arity for the stored e
			}
			key := pred + "(" + strings.Join(args, ",") + ")"
			if rng.Intn(2) == 0 {
				d.Assert(pred, args...)
				refused = refused || len(args) != 2
				next[key] = true
			} else {
				d.Retract(pred, args...)
				delete(next, key)
			}
		}
		var want ApplyResult
		for k := range next {
			if !model[k] {
				want.Asserted++
			}
		}
		for k := range model {
			if !next[k] {
				want.Retracted++
			}
		}

		n0, e0 := db.SymTab().Len(), db.FactEpoch()
		res, err := db.Apply(d)
		if refused {
			if !errors.Is(err, ErrArity) {
				t.Fatalf("round %d: wrong arity: Apply %v; want ErrArity", round, err)
			}
			if db.SymTab().Len() != n0 || db.FactEpoch() != e0 {
				t.Fatalf("round %d: a refused Apply changed the database", round)
			}
			continue
		}
		if err != nil || res != want {
			t.Fatalf("round %d: Apply %+v (%v), want %+v", round, res, err, want)
		}
		model = next
	}
}

// A fact a delta asserts and retracts nets to nothing, so Apply never
// interns its fresh constant; nor does a Land whose log fails before a
// fresh constant's fact is applied.
func TestCancelledAssertInternsNothing(t *testing.T) {
	db := mustDB(t, "e(a, b).")
	n0 := db.SymTab().Len()
	d := (&Delta{}).Assert("e", "a", "ghost").Retract("e", "a", "ghost")
	if res, err := db.Apply(d); err != nil || res != (ApplyResult{}) {
		t.Errorf("Apply = %+v, %v; want no change", res, err)
	}
	failed := errors.New("log failed")
	d = (&Delta{}).Assert("e", "a", "ghost")
	if _, at, err := db.Land(d, 0, func(uint64) error { return failed }); at != 0 || !errors.Is(err, failed) {
		t.Errorf("Land with a failing log = at %d, %v; want nothing landed, %v", at, err, failed)
	}
	if _, ok := db.SymTab().Lookup("ghost"); ok || db.SymTab().Len() != n0 {
		t.Errorf("an unlanded assert interned its constant (table %d -> %d)", n0, db.SymTab().Len())
	}
}

// Epoch 0 is no log position: ApplyAt skips it, as it skips every epoch
// at or below the fact epoch, where Land would take the next epoch.
func TestApplyAtZeroLandsNothing(t *testing.T) {
	db := mustDB(t, "e(a, b).")
	e0 := db.FactEpoch()
	res, ok, err := db.ApplyAt((&Delta{}).Assert("e", "b", "c"), 0)
	if ok || err != nil || res != (ApplyResult{}) || db.FactEpoch() != e0 {
		t.Fatalf("ApplyAt(d, 0) = %+v, %v, %v and epoch %d -> %d; want nothing landed", res, ok, err, e0, db.FactEpoch())
	}
}

// Land nets a Delta once and then runs its log holding db.mu in neither
// mode but the writer lock: a reader in the log runs and sees the state
// before the write, a writer started there lands after it, and a log that
// fails lands nothing.
func TestLandLogsBetweenCheckAndApply(t *testing.T) {
	db := mustDB(t, "tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z). e(a, b).")
	p, err := db.Prepare("tc(?, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Materialize("a")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	d := (&Delta{}).Assert("e", "b", "c")

	t.Run("a reader in the log sees the state before", func(t *testing.T) {
		e0 := db.FactEpoch()
		var rows [][]string
		_, at, err := db.Land(d, 0, func(epoch uint64) error {
			if epoch != e0+1 {
				t.Errorf("log got epoch %d, want %d", epoch, e0+1)
			}
			ans, err := db.Query("tc(a, Y)")
			rows = ans.Rows
			return err
		})
		if err != nil || at != e0+1 {
			t.Fatalf("Land = at %d, %v; want at %d", at, err, e0+1)
		}
		if len(rows) != 1 || rows[0][0] != "b" {
			t.Errorf("a query inside the log = %v, want [[b]]", rows)
		}
	})

	t.Run("a writer in the log lands after", func(t *testing.T) {
		e0 := db.FactEpoch()
		done := make(chan ApplyResult, 1)
		_, at, err := db.Land((&Delta{}).Assert("e", "c", "d"), 0, func(uint64) error {
			go func() {
				res, err := db.Apply((&Delta{}).Retract("e", "c", "d"))
				if err != nil {
					t.Error(err)
				}
				done <- res
			}()
			select {
			case res := <-done:
				t.Error("an Apply started in the log finished before Land returned")
				done <- res
			case <-time.After(20 * time.Millisecond):
			}
			return nil
		})
		if err != nil || at != e0+1 {
			t.Fatalf("Land = at %d, %v; want at %d", at, err, e0+1)
		}
		if res := <-done; res != (ApplyResult{Retracted: 1}) {
			t.Errorf("the Apply after Land = %+v, want Retracted: 1", res)
		}
		if e := db.FactEpoch(); e != e0+2 {
			t.Errorf("fact epoch %d, want %d", e, e0+2)
		}
	})

	t.Run("a failed log lands nothing", func(t *testing.T) {
		var before bytes.Buffer
		if err := db.DumpFacts(&before); err != nil {
			t.Fatal(err)
		}
		r0, f0 := db.Epochs()
		n0 := db.SymTab().Len()
		rows0, e0, gen0 := m.State()
		dbCh, viewCh := db.Updates(), m.Updates()
		failed := errors.New("append failed")
		d := (&Delta{}).Assert("e", "d", "fresh").Retract("e", "a", "b")
		if res, at, err := db.Land(d, 0, func(uint64) error { return failed }); !errors.Is(err, failed) || at != 0 || res != (ApplyResult{}) {
			t.Fatalf("Land = %+v at %d, %v; want nothing landed, %v", res, at, err, failed)
		}
		var after bytes.Buffer
		if err := db.DumpFacts(&after); err != nil {
			t.Fatal(err)
		}
		if r, f := db.Epochs(); r != r0 || f != f0 {
			t.Errorf("epochs (%d,%d) -> (%d,%d)", r0, f0, r, f)
		}
		if n := db.SymTab().Len(); n != n0 {
			t.Errorf("symbol table %d -> %d", n0, n)
		}
		if before.String() != after.String() {
			t.Errorf("store changed:\n%s\nwant:\n%s", after.String(), before.String())
		}
		if rows, e, gen := m.State(); !reflect.DeepEqual(rows, rows0) || e != e0 || gen != gen0 {
			t.Errorf("view (%v, %d, %d) -> (%v, %d, %d)", rows0, e0, gen0, rows, e, gen)
		}
		for name, ch := range map[string]<-chan struct{}{"DB.Updates": dbCh, "Materialized.Updates": viewCh} {
			select {
			case <-ch:
				t.Errorf("a failed log closed %s' channel", name)
			default:
			}
		}
	})
}

// A CSV line past the 1 MiB the reader accepts fails the ingest with its
// line number and changes nothing, the symbol table included.
func TestOverlongCSVLineChangesNothing(t *testing.T) {
	db := mustDB(t, "edge(a, b).")
	r0, f0 := db.Epochs()
	n0 := db.SymTab().Len()
	csv := "x1,x2\nx3,x4\n" + strings.Repeat("y", 1<<20) + ",z\nx5,x6\n"
	_, err := db.IngestCSV(strings.NewReader(csv), "e")
	if err == nil || !strings.Contains(err.Error(), "line 3 exceeds 1MiB") {
		t.Fatalf("over-long line: %v, want line 3 exceeds 1MiB", err)
	}
	if n := db.SymTab().Len(); n != n0 {
		t.Errorf("failed ingest grew the symbol table %d -> %d", n0, n)
	}
	if r, f := db.Epochs(); r != r0 || f != f0 || db.Store().Relation("e") != nil {
		t.Errorf("failed ingest changed the database: epochs (%d,%d) -> (%d,%d)", r0, f0, r, f)
	}
	// A line just under the limit is read.
	if _, err := db.IngestCSV(strings.NewReader(strings.Repeat("y", 1<<19)+",z\n"), "e"); err != nil {
		t.Fatalf("a long line under the limit: %v", err)
	}
}

// Updates is the DB's epoch signal: its channel closes on every write
// that moves an epoch and on no other, while a waiter that re-arms as the
// server's X-Chainlog-Min-Epoch wait does follows the moves to the last.
func TestUpdatesSignalsEpochMoves(t *testing.T) {
	db := NewDB()
	const last = 100 // the restore's epoch, past every other step's
	woke := make(chan uint64, 1)
	go func() {
		for {
			ch := db.Updates()
			if e := db.FactEpoch(); e >= last {
				woke <- e
				return
			}
			<-ch
		}
	}()
	apply := func(d *Delta) func() error {
		return func() error { _, err := db.Apply(d); return err }
	}
	applyAt := func(d *Delta, at func() uint64) func() error {
		return func() error { _, _, err := db.ApplyAt(d, at()); return err }
	}
	next := func() uint64 { return db.FactEpoch() + 1 }
	var snap bytes.Buffer
	for _, step := range []struct {
		name    string
		fires   bool
		refused bool
		write   func() error
	}{
		{"LoadProgram", true, false, func() error { return db.LoadProgram("e(a, b). e(b, c).") }},
		{"Apply that changes a fact", true, false, apply((&Delta{}).Assert("e", "c", "d"))},
		{"Apply that nets to nothing", false, false, apply((&Delta{}).Assert("e", "x", "y").Retract("e", "x", "y"))},
		{"Apply of a present fact", false, false, apply((&Delta{}).Assert("e", "a", "b"))},
		{"refused Apply", false, true, apply((&Delta{}).Assert("e", "a", "b", "c"))},
		{"ApplyAt of a change", true, false, applyAt((&Delta{}).Retract("e", "c", "d"), next)},
		{"ApplyAt of a no-op record", true, false, applyAt((&Delta{}).Retract("e", "c", "d"), next)},
		{"ApplyAt of a landed record", false, false, applyAt((&Delta{}).Assert("e", "c", "d"), db.FactEpoch)},
		{"refused ApplyAt", false, true, applyAt((&Delta{}).Assert("e", "a"), next)},
		{"snapshot restore", true, false, func() error {
			if _, err := db.SnapshotBinary(&snap, nil); err != nil {
				return err
			}
			return db.RestoreFactsAuto(&snap, last)
		}},
	} {
		ch := db.Updates()
		if err := step.write(); (err != nil) != step.refused {
			t.Fatalf("%s: err = %v, refused %v", step.name, err, step.refused)
		}
		select {
		case <-ch:
			if !step.fires {
				t.Errorf("%s closed the channel", step.name)
			}
		default:
			if step.fires {
				t.Errorf("%s left the channel open", step.name)
			}
		}
	}
	select {
	case e := <-woke:
		if e != last {
			t.Errorf("waiter woke at epoch %d, want %d", e, last)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter did not see the restore's epoch")
	}
}
