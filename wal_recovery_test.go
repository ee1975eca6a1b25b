package chainlog

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"chainlog/internal/naiveeval"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
	"chainlog/internal/wal"
)

func TestApplyAtIdempotence(t *testing.T) {
	db := NewDB()
	if err := db.LoadProgram(`tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z).`); err != nil {
		t.Fatal(err)
	}
	base := db.FactEpoch()

	d := &Delta{}
	d.Assert("e", "a", "b")
	res, ok, err := db.ApplyAt(d, base+1)
	if !ok || err != nil || res.Asserted != 1 {
		t.Fatalf("first ApplyAt: ok=%v res=%+v err=%v", ok, res, err)
	}
	if db.FactEpoch() != base+1 {
		t.Fatalf("epoch after ApplyAt = %d, want %d", db.FactEpoch(), base+1)
	}

	// Duplicate delivery of the same record: a no-op, nothing moves.
	if res, ok, _ := db.ApplyAt(d, base+1); ok || res.Asserted != 0 {
		t.Fatalf("duplicate ApplyAt: ok=%v res=%+v", ok, res)
	}
	// A record from the past is equally dead.
	old := &Delta{}
	old.Retract("e", "a", "b")
	if _, ok, _ := db.ApplyAt(old, base); ok {
		t.Fatal("past-epoch ApplyAt was applied")
	}
	if ans, err := db.Query("tc(a, Y)"); err != nil || len(ans.Rows) != 1 {
		t.Fatalf("state disturbed by duplicate replay: %+v, %v", ans, err)
	}

	// A net-no-change record at a NEW epoch still moves the epoch: the
	// epoch is a log position, not a change counter, and a replica must
	// track it even when the ops net to nothing.
	if _, ok, _ := db.ApplyAt(d, base+5); !ok {
		t.Fatal("net-no-change ApplyAt at a new epoch was skipped")
	}
	if db.FactEpoch() != base+5 {
		t.Fatalf("epoch = %d, want %d", db.FactEpoch(), base+5)
	}
	// And nil deltas work the same way (pure epoch advance).
	if _, ok, _ := db.ApplyAt(nil, base+7); !ok || db.FactEpoch() != base+7 {
		t.Fatalf("nil-delta ApplyAt: epoch %d", db.FactEpoch())
	}
	// A record the DB cannot apply is an error that applies nothing and
	// leaves the epoch where it was: the follower stops on it.
	bad := (&Delta{}).Assert("e", "c", "d").Assert("e", "x")
	if _, ok, err := db.ApplyAt(bad, base+8); ok || !errors.Is(err, ErrArity) {
		t.Fatalf("wrong-arity ApplyAt: ok=%v err=%v, want ErrArity", ok, err)
	}
	if db.FactEpoch() != base+7 {
		t.Fatalf("epoch after a refused record = %d, want %d", db.FactEpoch(), base+7)
	}
	if ans, err := db.Query("tc(c, Y)"); err != nil || len(ans.Rows) != 0 {
		t.Fatalf("a refused record applied part of itself: %+v, %v", ans, err)
	}
}

func TestEpochAccessors(t *testing.T) {
	db := NewDB()
	re, fe := db.RuleEpoch(), db.FactEpoch()
	if err := db.LoadProgram(`p(X) :- q(X).`); err != nil {
		t.Fatal(err)
	}
	if db.RuleEpoch() <= re {
		t.Fatal("loading rules did not move the rule epoch")
	}
	fe = db.FactEpoch()
	db.Assert("q", "a")
	if db.FactEpoch() != fe+1 {
		t.Fatalf("assert moved fact epoch %d -> %d", fe, db.FactEpoch())
	}
	if db.Assert("q", "a"); db.FactEpoch() != fe+1 {
		t.Fatal("no-op assert moved the fact epoch")
	}
}

func TestSaveFactsAtomic(t *testing.T) {
	db := mustDB(t, sgSrc)
	dir := t.TempDir()
	path := filepath.Join(dir, "facts.dl")
	if err := db.SaveFacts(path); err != nil {
		t.Fatal(err)
	}
	// No temp debris, and the file round-trips.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "facts.dl" {
		t.Fatalf("directory after SaveFacts: %v", entries)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := db.DumpFacts(&want); err != nil {
		t.Fatal(err)
	}
	if string(data) != want.String() {
		t.Fatal("SaveFacts content differs from DumpFacts")
	}
	// Overwriting an existing file is atomic too (rename semantics).
	db.Assert("up", "new_node", "other_node")
	if err := db.SaveFacts(path); err != nil {
		t.Fatal(err)
	}
	data2, _ := os.ReadFile(path)
	if !strings.Contains(string(data2), "new_node") {
		t.Fatal("second SaveFacts did not replace the file")
	}
}

func TestRestoreFacts(t *testing.T) {
	db := mustDB(t, sgSrc)
	var snap bytes.Buffer
	if err := db.DumpFacts(&snap); err != nil {
		t.Fatal(err)
	}
	epoch := db.FactEpoch()
	want, err := db.Query("sg(john, Y)")
	if err != nil {
		t.Fatal(err)
	}

	// Restore into a second DB that has the rules but drifted facts: the
	// restore must REPLACE the store, not merge into it.
	var rules bytes.Buffer
	if err := db.DumpRules(&rules); err != nil {
		t.Fatal(err)
	}
	db2 := NewDB()
	if err := db2.LoadProgram(rules.String()); err != nil {
		t.Fatal(err)
	}
	db2.Assert("up", "drift", "drift2")
	if err := db2.RestoreFacts(bytes.NewReader(snap.Bytes()), epoch); err != nil {
		t.Fatal(err)
	}
	if db2.FactEpoch() != epoch {
		t.Fatalf("restored epoch = %d, want %d", db2.FactEpoch(), epoch)
	}
	if ans, _ := db2.Query("up(drift, Y)"); len(ans.Rows) != 0 {
		t.Fatal("restore merged instead of replacing: drifted fact survived")
	}
	got, err := db2.Query("sg(john, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("restored answers %v, want %v", got.Rows, want.Rows)
	}

	// Prepared plans survive a restore (rule epoch machinery): prepare
	// before, run after.
	p, err := db2.Prepare("sg(?, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.RestoreFacts(bytes.NewReader(snap.Bytes()), epoch+1); err != nil {
		t.Fatal(err)
	}
	if ans, err := p.Run("john"); err != nil || !reflect.DeepEqual(ans.Rows, want.Rows) {
		t.Fatalf("prepared run after restore: %+v, %v", ans, err)
	}

	// A snapshot containing rules is rejected — facts only.
	if err := db2.RestoreFacts(strings.NewReader("p(X) :- q(X)."), epoch+2); err == nil {
		t.Fatal("RestoreFacts accepted a rule")
	}
	// So is one holding two arities of a predicate, and nothing moves.
	if err := db2.RestoreFacts(strings.NewReader("e(a, b).\ne(c)."), epoch+2); err == nil {
		t.Fatal("RestoreFacts accepted two arities of e")
	}
	if db2.FactEpoch() != epoch+1 {
		t.Fatalf("a refused restore moved the epoch to %d", db2.FactEpoch())
	}
}

const walRecoverySrc = `
	tc(X, Y) :- e(X, Y).
	tc(X, Z) :- e(X, Y), tc(Y, Z).
`

var walRecoveryConsts = []string{"a", "b", "c", "d", "f", "g"}

// runWALSchedule drives a deterministic mutation schedule through the
// commit discipline chainlogd uses (Apply, then Append at the produced
// epoch) into a log at dir, calling snapshot every 17th step, and
// returns the live DB and the textbook oracle's fact set.
func runWALSchedule(t *testing.T, seed int64, dir string, snapshot func(l *wal.Log, db *DB) error) (*DB, *naiveeval.Facts) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	db := NewDB()
	if err := db.LoadProgram(walRecoverySrc); err != nil {
		t.Fatal(err)
	}
	oracle := naiveeval.NewFacts()
	consts := walRecoveryConsts
	for step := 0; step < 60; step++ {
		d := &Delta{}
		var ops []wal.Op
		for i := 0; i <= rng.Intn(3); i++ {
			args := []string{consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))]}
			retract := rng.Intn(3) == 0
			if retract {
				d.Retract("e", args...)
				oracle.Retract("e", []symtab.Sym{db.Intern(args[0]), db.Intern(args[1])})
			} else {
				d.Assert("e", args...)
				oracle.Assert("e", []symtab.Sym{db.Intern(args[0]), db.Intern(args[1])})
			}
			ops = append(ops, wal.Op{Retract: retract, Pred: "e", Args: args})
		}
		// The daemon's commit discipline: apply, then append at the
		// epoch the apply produced, only when the epoch moved.
		r := mustApply(t, db, d)
		if r.Asserted > 0 || r.Retracted > 0 {
			if err := l.Append(wal.Record{Epoch: db.FactEpoch(), Ops: ops}); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		if step%17 == 16 {
			if err := snapshot(l, db); err != nil {
				t.Fatalf("seed %d step %d snapshot: %v", seed, step, err)
			}
		}
	}
	return db, oracle
}

// recoverFromWAL is the "crash": a fresh DB booted from the same
// program recovers the way the daemon does — newest snapshot through
// RestoreFactsAuto, then the log tail.
func recoverFromWAL(t *testing.T, l *wal.Log) *DB {
	t.Helper()
	rdb := NewDB()
	if err := rdb.LoadProgram(walRecoverySrc); err != nil {
		t.Fatal(err)
	}
	if path, epoch, ok := l.Snapshot(); ok {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		err = rdb.RestoreFactsAuto(f, epoch)
		f.Close()
		if err != nil {
			t.Fatalf("restoring %s: %v", path, err)
		}
	}
	if err := l.ReadFrom(rdb.FactEpoch(), func(rec wal.Record) error {
		d := &Delta{}
		for _, op := range rec.Ops {
			if op.Retract {
				d.Retract(op.Pred, op.Args...)
			} else {
				d.Assert(op.Pred, op.Args...)
			}
		}
		_, _, err := rdb.ApplyAt(d, rec.Epoch)
		return err
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return rdb
}

// checkRecovered holds a recovered DB against the live one and the
// independent semi-naive oracle.
func checkRecovered(t *testing.T, seed int64, db, rdb *DB, oracle *naiveeval.Facts) {
	t.Helper()
	if rdb.FactEpoch() != db.FactEpoch() {
		t.Fatalf("seed %d: recovered epoch %d, live epoch %d", seed, rdb.FactEpoch(), db.FactEpoch())
	}
	// The recovered store holds exactly the live one's facts (a binary
	// restore orders them by symbol, not by insertion)...
	var liveDump, recDump bytes.Buffer
	if err := db.DumpFacts(&liveDump); err != nil {
		t.Fatal(err)
	}
	if err := rdb.DumpFacts(&recDump); err != nil {
		t.Fatal(err)
	}
	if sortLines(liveDump.String()) != sortLines(recDump.String()) {
		t.Fatalf("seed %d: recovered facts differ\nlive:\n%s\nrecovered:\n%s",
			seed, liveDump.String(), recDump.String())
	}
	// ...and its derived answers match the independent oracle, which
	// lives in the live DB's symbol table (a recovered DB interns the
	// same names in a different order), so rows are compared by name.
	res, err := parser.Parse(walRecoverySrc, db.SymTab())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range walRecoveryConsts {
		text := fmt.Sprintf("tc(%s, Y)", c)
		ans, err := rdb.Query(text)
		if err != nil {
			t.Fatalf("seed %d query %s: %v", seed, text, err)
		}
		q, err := parser.ParseQuery(text, db.SymTab())
		if err != nil {
			t.Fatal(err)
		}
		rows := naiveeval.Answer(res.Program, oracle, db.SymTab(), q)
		want := make([][]string, 0, len(rows))
		for _, r := range rows {
			row := make([]string, len(r))
			for i, v := range r {
				row[i] = db.Name(v)
			}
			want = append(want, row)
		}
		sortRows(want)
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(ans.Rows, want) {
			t.Fatalf("seed %d: recovered %s = %v, oracle %v", seed, text, ans.Rows, want)
		}
	}
}

func snapshotBinary(l *wal.Log, db *DB) error {
	_, err := l.WriteSnapshot(func(w io.Writer) (uint64, error) { return db.SnapshotBinary(w, nil) })
	return err
}

// TestWALRecoveryMatchesOracle: snapshot every so often, then recover a
// fresh DB the way boot does — newest snapshot plus log tail — and check
// the result against both the live DB and the semi-naive oracle.
func TestWALRecoveryMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		dir := t.TempDir()
		db, oracle := runWALSchedule(t, seed, dir, snapshotBinary)
		l, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		rdb := recoverFromWAL(t, l)
		l.Close()
		checkRecovered(t, seed, db, rdb, oracle)
	}
}
