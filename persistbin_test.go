package chainlog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"chainlog/internal/workload"
)

// renderAnswer flattens an answer to a canonical string so two DBs can
// be compared byte-for-byte.
func renderAnswer(t *testing.T, ans *Answer) string {
	t.Helper()
	if len(ans.Vars) == 0 {
		return fmt.Sprintf("bool:%v", ans.True)
	}
	rows := make([]string, len(ans.Rows))
	for i, r := range ans.Rows {
		rows[i] = strings.Join(r, ",")
	}
	sort.Strings(rows)
	return strings.Join(ans.Vars, ",") + "\n" + strings.Join(rows, "\n")
}

// populateTemplate loads a diff template's rules and a deterministic
// random fact set into a fresh DB, and returns the concrete query texts
// (holes filled from the constant pool).
func populateTemplate(t *testing.T, tmpl diffTemplate, seed int64) (*DB, []string) {
	t.Helper()
	db := NewDB()
	if err := db.LoadProgram(tmpl.src); err != nil {
		t.Fatalf("%s: %v", tmpl.name, err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 120; i++ {
		b := tmpl.bases[rng.Intn(len(tmpl.bases))]
		args := make([]string, b.arity)
		for j := range args {
			args[j] = diffConsts[rng.Intn(len(diffConsts))]
		}
		db.Assert(b.pred, args...)
	}
	var queries []string
	for _, q := range tmpl.queries {
		queries = append(queries, fillHoles(q, []string{"c1", "c3"}))
	}
	return db, queries
}

// TestBinarySnapshotRoundTripQueries is the round-trip oracle: for every
// differential program family, a DB saved as a binary snapshot and
// reopened via the mmap path must produce byte-identical answers on the
// full query sweep.
func TestBinarySnapshotRoundTripQueries(t *testing.T) {
	for _, tmpl := range diffTemplates {
		t.Run(tmpl.name, func(t *testing.T) {
			db, queries := populateTemplate(t, tmpl, 7)
			path := filepath.Join(t.TempDir(), "facts.snap")
			if err := db.WriteSnapshot(path); err != nil {
				t.Fatalf("WriteSnapshot: %v", err)
			}
			ok, err := isSnapshotFile(path)
			if err != nil || !ok {
				t.Fatalf("isSnapshotFile = %v, %v", ok, err)
			}
			db2, err := OpenSnapshot(path)
			if err != nil {
				t.Fatalf("OpenSnapshot: %v", err)
			}
			defer db2.Close()
			if err := db2.LoadProgram(tmpl.src); err != nil {
				t.Fatalf("rules on snapshot DB: %v", err)
			}
			if got, want := db2.FactEpoch(), db.FactEpoch(); got != want {
				t.Errorf("fact epoch = %d, want %d", got, want)
			}
			for _, q := range queries {
				a1, err := db.Query(q)
				if err != nil {
					t.Fatalf("source %s: %v", q, err)
				}
				a2, err := db2.Query(q)
				if err != nil {
					t.Fatalf("snapshot %s: %v", q, err)
				}
				if r1, r2 := renderAnswer(t, a1), renderAnswer(t, a2); r1 != r2 {
					t.Errorf("%s diverges:\nsource:\n%s\nsnapshot:\n%s", q, r1, r2)
				}
			}
		})
	}
}

// TestBinarySnapshotMutableAfterOpen verifies a snapshot-backed DB is a
// full DB: mutations thaw the mapped relations transparently and
// queries see them.
func TestBinarySnapshotMutableAfterOpen(t *testing.T) {
	db, _ := populateTemplate(t, diffTemplates[0], 11) // tc over e
	path := filepath.Join(t.TempDir(), "facts.snap")
	if err := db.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.LoadProgram(diffTemplates[0].src); err != nil {
		t.Fatal(err)
	}
	if ok, err := db2.Assert("e", "zz_new", "c0"); !ok || err != nil {
		t.Fatal("assert on snapshot DB reported not-new")
	}
	ans, err := db2.Query("tc(zz_new, Y)")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range ans.Rows {
		if row[0] == "c0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("asserted edge invisible through recursion: %v", ans.Rows)
	}
	if ok, err := db2.Retract("e", "zz_new", "c0"); !ok || err != nil {
		t.Fatal("retract on snapshot DB failed")
	}
	// A text fact whose arity disagrees with a mapped relation is refused
	// before any fact of the load lands.
	epoch := db2.FactEpoch()
	if err := db2.LoadProgram("e(zz_a, zz_b).\ne(zz_c, zz_d, zz_e)."); err == nil {
		t.Fatal("a parse accepted two arities for e")
	}
	if err := db2.LoadProgram("d(zz_a).\ne(zz_c)."); !errors.Is(err, ErrArity) {
		t.Fatalf("wrong-arity fact over a snapshot relation: %v, want ErrArity", err)
	}
	if db2.FactEpoch() != epoch || db2.Store().Relation("d") != nil {
		t.Fatal("a refused load changed the store")
	}
}

// TestRestoreFactsBinaryIntoLiveDB exercises the replica-bootstrap path:
// the stream is decoded into an existing DB, re-interned into its
// symbol table so rules and prepared plans keep working.
func TestRestoreFactsBinaryIntoLiveDB(t *testing.T) {
	src, queries := populateTemplate(t, diffTemplates[1], 3) // sg
	var buf bytes.Buffer
	epoch, err := src.SnapshotBinary(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewDB()
	if err := dst.LoadProgram(diffTemplates[1].src); err != nil {
		t.Fatal(err)
	}
	// Pre-existing state that must be displaced, plus symbols interned in
	// a different order than the snapshot's dense ids.
	dst.Assert("up", "stale_x", "stale_y")
	if err := dst.RestoreFactsAuto(&buf, epoch+5); err != nil {
		t.Fatalf("RestoreFactsAuto: %v", err)
	}
	if dst.FactEpoch() != epoch+5 {
		t.Errorf("fact epoch = %d, want %d", dst.FactEpoch(), epoch+5)
	}
	for _, q := range queries {
		a1, err := src.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := dst.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if r1, r2 := renderAnswer(t, a1), renderAnswer(t, a2); r1 != r2 {
			t.Errorf("%s diverges after binary restore:\n%s\nvs\n%s", q, r1, r2)
		}
	}
	if ans, _ := dst.Query("sg(stale_x, Y)"); len(ans.Rows) != 0 {
		t.Error("stale pre-restore fact survived")
	}
}

// TestRestoreFactsAuto: the one restore installs a binary body and
// refuses everything else — the fact text older daemons wrote as
// snap-<epoch>.dl included — without touching the store.
func TestRestoreFactsAuto(t *testing.T) {
	src, _ := populateTemplate(t, diffTemplates[0], 5)
	var text, bin bytes.Buffer
	if err := src.DumpFacts(&text); err != nil {
		t.Fatal(err)
	}
	if _, err := src.SnapshotBinary(&bin, nil); err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(SnapshotMagic), bytes.Repeat([]byte{0xff}, 64)...)
	for _, tc := range []struct {
		name string
		data []byte
		ok   bool
	}{
		{"binary", bin.Bytes(), true},
		{"legacy text", text.Bytes(), false},
		{"empty", nil, false},
		{"truncated binary", bin.Bytes()[:bin.Len()/2], false},
		{"magic then noise", corrupt, false},
		{"garbage", []byte("\xff\xfenot a snapshot"), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := NewDB()
			db.Assert("kept", "a", "b")
			before := db.FactEpoch()
			err := db.RestoreFactsAuto(bytes.NewReader(tc.data), 9)
			if !tc.ok {
				if err == nil {
					t.Fatal("restore accepted the body")
				}
				if ans, _ := db.Query("kept(a, Y)"); db.FactEpoch() != before || len(ans.Rows) != 1 {
					t.Errorf("failed restore disturbed the DB: epoch %d -> %d, rows %v", before, db.FactEpoch(), ans.Rows)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if db.FactEpoch() != 9 {
				t.Errorf("epoch = %d, want 9", db.FactEpoch())
			}
			var got bytes.Buffer
			if err := db.DumpFacts(&got); err != nil {
				t.Fatal(err)
			}
			if sortLines(got.String()) != sortLines(text.String()) {
				t.Error("restored facts differ from source")
			}
		})
	}
}

func sortLines(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestSnapshotCorruptionRejectedAtOpen ensures OpenSnapshot never serves
// a damaged file.
func TestSnapshotCorruptionRejectedAtOpen(t *testing.T) {
	db, _ := populateTemplate(t, diffTemplates[0], 13)
	dir := t.TempDir()
	path := filepath.Join(dir, "facts.snap")
	if err := db.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{9, 70, 100, len(img) / 2, len(img) - 2} {
		bad := append([]byte(nil), img...)
		bad[pos] ^= 0x10
		badPath := filepath.Join(dir, fmt.Sprintf("bad%d.snap", pos))
		if err := os.WriteFile(badPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSnapshot(badPath); err == nil {
			t.Errorf("corrupted snapshot (flip at %d) opened", pos)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "trunc.snap"), img[:len(img)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshot(filepath.Join(dir, "trunc.snap")); err == nil {
		t.Error("truncated snapshot opened")
	}
}

// TestIngestCSVMatchesAsserted loads a grid twice — streamed through the
// CSV bulk ingestor and fact-by-fact through Assert — and requires
// byte-identical recursive answers.
func TestIngestCSVMatchesAsserted(t *testing.T) {
	const w, h = 12, 9
	var csv bytes.Buffer
	n, err := workload.WriteCSV(&csv, workload.GridStream(w, h))
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate a few lines: ingestion must deduplicate like Assert.
	head := csv.String()
	csv.WriteString(strings.SplitN(head, "\n", 2)[0] + "\n")

	prog := "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n"
	bulk := NewDB()
	if err := bulk.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	stats, err := bulk.IngestCSV(&csv, "edge")
	if err != nil {
		t.Fatalf("IngestCSV: %v", err)
	}
	if stats.Lines != n+1 || stats.Edges != n {
		t.Errorf("stats = %+v, want %d lines and %d distinct edges", stats, n+1, n)
	}

	ref := NewDB()
	if err := ref.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	for src, dst := range workload.GridStream(w, h) {
		ref.Assert("edge", src, dst)
	}
	for _, q := range []string{"tc(g0_0, Y)", "tc(X, g2_2)", "tc(g3_0, Y)"} {
		a1, err := bulk.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if r1, r2 := renderAnswer(t, a1), renderAnswer(t, a2); r1 != r2 {
			t.Errorf("%s diverges between ingest and assert:\n%s\nvs\n%s", q, r1, r2)
		}
	}

	// Second ingest into the same relation must fail.
	if _, err := bulk.IngestCSV(strings.NewReader("a,b\n"), "edge"); err == nil {
		t.Error("double ingest accepted")
	}
	// Malformed input.
	if _, err := NewDB().IngestCSV(strings.NewReader("a,b,c\n"), "e2"); err == nil {
		t.Error("three-field line accepted")
	}
}

// A failed ingest — a malformed line after good ones, a relation that
// already exists — changes nothing, the symbol table included; a good
// one interns its names in name order.
func TestFailedIngestInternsNothing(t *testing.T) {
	db := mustDB(t, "edge(a, b).")
	r0, f0 := db.Epochs()
	n0 := db.SymTab().Len()
	for name, ingest := range map[string]func() error{
		"malformed CSV": func() error {
			_, err := db.IngestCSV(strings.NewReader("x1,x2\nx3,x4\nbad line\n"), "e")
			return err
		},
		"malformed JSONL": func() error {
			_, err := db.IngestJSONL(strings.NewReader(`{"src": "x5", "dst": "x6"}`+"\n{\n"), "e")
			return err
		},
		"existing relation": func() error {
			_, err := db.IngestCSV(strings.NewReader("x7,x8\n"), "edge")
			return err
		},
	} {
		if err := ingest(); err == nil {
			t.Errorf("%s: ingest accepted", name)
		}
	}
	if n := db.SymTab().Len(); n != n0 {
		t.Errorf("failed ingests grew the symbol table %d -> %d", n0, n)
	}
	if r, f := db.Epochs(); r != r0 || f != f0 || db.Store().Relation("e") != nil {
		t.Errorf("failed ingests changed the database: epochs (%d,%d) -> (%d,%d)", r0, f0, r, f)
	}

	if _, err := db.IngestCSV(strings.NewReader("p,q\nb,r\nq,p\n"), "e"); err != nil {
		t.Fatal(err)
	}
	var syms []Sym
	for _, name := range []string{"p", "q", "r"} {
		s, ok := db.SymTab().Lookup(name)
		if !ok {
			t.Fatalf("ingested name %s not interned", name)
		}
		syms = append(syms, s)
	}
	if !slices.IsSorted(syms) || db.SymTab().Len() != n0+3 {
		t.Errorf("ingest interned %v (table %d -> %d), want p, q, r in name order", syms, n0, db.SymTab().Len())
	}
}

// An ingest puts its fresh names in name order, whatever order the input
// meets them in; names the DB already holds keep their Syms.
func TestIngestNumbersNamesInNameOrder(t *testing.T) {
	for _, tc := range []struct {
		prog, csv string
		held      []string
	}{
		{csv: "z,a\nm,z\n"},
		{prog: "edge(y, k).", csv: "z,a\nm,y\nk,b\n", held: []string{"y", "k"}},
	} {
		db := mustDB(t, tc.prog)
		before := map[string]Sym{}
		for _, name := range tc.held {
			before[name], _ = db.SymTab().Lookup(name)
		}
		n0 := db.SymTab().Len()
		if _, err := db.IngestCSV(strings.NewReader(tc.csv), "e"); err != nil {
			t.Fatal(err)
		}
		var fresh []string
		for _, line := range strings.Split(strings.TrimSpace(tc.csv), "\n") {
			for _, name := range strings.Split(line, ",") {
				s, _ := db.SymTab().Lookup(name)
				if want, ok := before[name]; ok {
					if s != want {
						t.Errorf("%q: held name %s moved %d -> %d", tc.csv, name, want, s)
					}
				} else if !slices.Contains(fresh, name) {
					fresh = append(fresh, name)
				}
			}
		}
		slices.Sort(fresh)
		for i, name := range fresh {
			if s, _ := db.SymTab().Lookup(name); int(s) != n0+i {
				t.Errorf("%q: fresh name %s is Sym %d, want %d (name order)", tc.csv, name, s, n0+i)
			}
		}
	}
}

// The snapshot written after IngestCSV is byte for byte the one written
// from the same edges asserted one by one in a shuffled order: the
// ingested table's ids ascend in name order, so its writer keeps them,
// and the asserted table's do not, so its writer orders them.
func TestIngestSnapshotMatchesAsserted(t *testing.T) {
	var edges [][2]string
	for src, dst := range workload.PowerLawStream(300, 2000, 7) {
		edges = append(edges, [2]string{src, dst})
	}
	rand.New(rand.NewSource(3)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	var csv strings.Builder
	d := &Delta{}
	for _, e := range edges {
		csv.WriteString(e[0] + "," + e[1] + "\n")
		d.Assert("edge", e[0], e[1])
	}
	bulk, ref := NewDB(), NewDB()
	if _, err := bulk.IngestCSV(strings.NewReader(csv.String()), "edge"); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Apply(d); err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if _, err := bulk.SnapshotBinary(&b1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.SnapshotBinary(&b2, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Errorf("snapshot after ingest (%d bytes) differs from snapshot after asserts (%d bytes)", b1.Len(), b2.Len())
	}
}

func TestIngestJSONL(t *testing.T) {
	db := NewDB()
	in := `{"src": "a", "dst": "b"}
{"src": "b", "dst": "c"}

{"src": "a", "dst": "b"}
`
	stats, err := db.IngestJSONL(strings.NewReader(in), "edge")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Lines != 3 || stats.Edges != 2 {
		t.Errorf("stats = %+v", stats)
	}
	if _, err := NewDB().IngestJSONL(strings.NewReader(`{"src": "a"}`), "e"); err == nil {
		t.Error("missing dst accepted")
	}
}

// TestIngestThenSnapshotRoundTrip chains the two new paths end to end:
// stream-ingest a power-law graph, snapshot it, reopen via mmap, verify
// equal answers.
func TestIngestThenSnapshotRoundTrip(t *testing.T) {
	var csv bytes.Buffer
	if _, err := workload.WriteCSV(&csv, workload.PowerLawStream(200, 1500, 42)); err != nil {
		t.Fatal(err)
	}
	prog := "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n"
	db := NewDB()
	if err := db.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := db.IngestCSV(bytes.NewReader(csv.Bytes()), "edge"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pl.snap")
	if err := db.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"tc(n0, Y)", "tc(n1, Y)", "tc(X, n0)"} {
		a1, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := db2.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if r1, r2 := renderAnswer(t, a1), renderAnswer(t, a2); r1 != r2 {
			t.Errorf("%s diverges:\n%s\nvs\n%s", q, r1, r2)
		}
	}
}
