package chainlog

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// Net is Apply without the change: on random deltas — duplicates, flips,
// retracts of absent facts and of unknown constants, facts of a relation
// the delta creates, wrong arities — it reports what Apply then does, and
// interns and changes nothing. Apply's net is checked against a replay of
// the ops on a set.
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
		got, err := db.Net(d)
		if db.SymTab().Len() != n0 || db.FactEpoch() != e0 {
			t.Fatalf("round %d: Net changed the database", round)
		}
		res, aerr := db.Apply(d)
		if refused {
			if !errors.Is(err, ErrArity) || !errors.Is(aerr, ErrArity) {
				t.Fatalf("round %d: wrong arity: Net %v, Apply %v; want ErrArity", round, err, aerr)
			}
			continue
		}
		if err != nil || aerr != nil || got != want || res != want {
			t.Fatalf("round %d: Net %+v (%v), Apply %+v (%v), want %+v", round, got, err, res, aerr, want)
		}
		model = next
	}
}

// A fact a delta asserts and retracts nets to nothing, so its fresh
// constant is never interned, by Net or by Apply.
func TestCancelledAssertInternsNothing(t *testing.T) {
	db := mustDB(t, "e(a, b).")
	n0 := db.SymTab().Len()
	d := (&Delta{}).Assert("e", "a", "ghost").Retract("e", "a", "ghost")
	for name, apply := range map[string]func() (ApplyResult, error){
		"Net":   func() (ApplyResult, error) { return db.Net(d) },
		"Apply": func() (ApplyResult, error) { return db.Apply(d) },
	} {
		if res, err := apply(); err != nil || res != (ApplyResult{}) {
			t.Errorf("%s = %+v, %v; want no change", name, res, err)
		}
	}
	if _, ok := db.SymTab().Lookup("ghost"); ok || db.SymTab().Len() != n0 {
		t.Errorf("a cancelled assert interned its constant (table %d -> %d)", n0, db.SymTab().Len())
	}
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
