package chainlog

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"chainlog/internal/workload"
)

// The Load/Ingest benchmark family measures cold-start cost on a shared
// grid fixture: the same edge set written three ways (Datalog fact
// text, CSV, binary snapshot) so text parsing, bulk ingestion and
// mmap-open are directly comparable. Default size keeps CI smoke fast;
// LARGEGRAPH=1 switches to a ~10M-edge grid, the scale the binary
// snapshot format is for.

const loadProg = "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n"

type loadFixture struct {
	textPath, csvPath, snapPath string
	w, h, edges                 int
	// probe queries: an EDB probe at the source corner and a recursive
	// query from the sink corner (whose reachable set is empty, so the
	// answer is correct recursion with O(1) work — the measurement stays
	// dominated by load, not traversal).
	probeQ, sinkQ string
}

var loadFix struct {
	once sync.Once
	f    *loadFixture
	err  error
}

func largeGraph() bool { return os.Getenv("LARGEGRAPH") == "1" }

func getLoadFixture(tb testing.TB) *loadFixture {
	tb.Helper()
	loadFix.once.Do(func() { loadFix.f, loadFix.err = buildLoadFixture() })
	if loadFix.err != nil {
		tb.Fatalf("building load fixture: %v", loadFix.err)
	}
	return loadFix.f
}

func buildLoadFixture() (*loadFixture, error) {
	w, h := 160, 160 // 50,880 edges
	if largeGraph() {
		w, h = 2240, 2240 // 10,030,720 edges
	}
	dir, err := os.MkdirTemp("", "chainlog-loadbench-")
	if err != nil {
		return nil, err
	}
	f := &loadFixture{
		textPath: filepath.Join(dir, "facts.dl"),
		csvPath:  filepath.Join(dir, "facts.csv"),
		snapPath: filepath.Join(dir, "facts.snap"),
		w:        w, h: h,
		probeQ: "edge(g0_0, Y)",
		sinkQ:  fmt.Sprintf("tc(g%d_%d, Y)", w-1, h-1),
	}
	// Fact text, streamed straight from the generator.
	tf, err := os.Create(f.textPath)
	if err != nil {
		return nil, err
	}
	tw := bufio.NewWriterSize(tf, 1<<20)
	for src, dst := range workload.GridStream(w, h) {
		fmt.Fprintf(tw, "edge(%s,%s).\n", src, dst)
		f.edges++
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	if err := tf.Close(); err != nil {
		return nil, err
	}
	// CSV.
	cf, err := os.Create(f.csvPath)
	if err != nil {
		return nil, err
	}
	if _, err := workload.WriteCSV(cf, workload.GridStream(w, h)); err != nil {
		return nil, err
	}
	if err := cf.Close(); err != nil {
		return nil, err
	}
	// Binary snapshot, via the ingestion path it ships with.
	db := NewDB()
	in, err := os.Open(f.csvPath)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	if _, err := db.IngestCSV(in, "edge"); err != nil {
		return nil, err
	}
	if err := db.WriteSnapshot(f.snapPath); err != nil {
		return nil, err
	}
	return f, nil
}

// loadText is the text cold-start path: read, parse, intern, insert.
func loadText(f *loadFixture) (*DB, error) {
	db := NewDB()
	if err := db.LoadProgram(loadProg); err != nil {
		return nil, err
	}
	src, err := os.Open(f.textPath)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	if err := db.RestoreFacts(src, 1); err != nil {
		return nil, err
	}
	return db, nil
}

// loadBinary is the mmap cold-start path.
func loadBinary(f *loadFixture) (*DB, error) {
	db, err := OpenSnapshot(f.snapPath)
	if err != nil {
		return nil, err
	}
	if err := db.LoadProgram(loadProg); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// firstAnswer drives the fixture's query pair and sanity-checks the
// results, returning an error on any wrong answer.
func firstAnswer(db *DB, f *loadFixture) error {
	ans, err := db.Query(f.probeQ)
	if err != nil {
		return err
	}
	if len(ans.Rows) != 2 {
		return fmt.Errorf("%s: %d rows, want 2", f.probeQ, len(ans.Rows))
	}
	ans, err = db.Query(f.sinkQ)
	if err != nil {
		return err
	}
	if len(ans.Rows) != 0 {
		return fmt.Errorf("%s: %d rows, want 0", f.sinkQ, len(ans.Rows))
	}
	return nil
}

func BenchmarkLoad(b *testing.B) {
	f := getLoadFixture(b)
	b.Run("text", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db, err := loadText(f)
			if err != nil {
				b.Fatal(err)
			}
			if err := firstAnswer(db, f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db, err := loadBinary(f)
			if err != nil {
				b.Fatal(err)
			}
			if err := firstAnswer(db, f); err != nil {
				b.Fatal(err)
			}
			db.Close()
		}
	})
}

func BenchmarkIngest(b *testing.B) {
	f := getLoadFixture(b)
	b.Run("csv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db := NewDB()
			in, err := os.Open(f.csvPath)
			if err != nil {
				b.Fatal(err)
			}
			stats, err := db.IngestCSV(in, "edge")
			in.Close()
			if err != nil {
				b.Fatal(err)
			}
			if stats.Edges != f.edges {
				b.Fatalf("ingested %d edges, want %d", stats.Edges, f.edges)
			}
		}
	})
	b.Run("snapshot_write", func(b *testing.B) {
		db, err := loadBinary(f)
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		out := filepath.Join(b.TempDir(), "out.snap")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.WriteSnapshot(out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDumpFacts tracks the text persist path (the satellite
// optimization: constants stream into the buffer without intermediate
// Render strings).
func BenchmarkDumpFacts(b *testing.B) {
	f := getLoadFixture(b)
	db, err := loadBinary(f)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer null.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.DumpFacts(null); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLargeGraphSpeedup is the acceptance gate for the binary format:
// on a ≥10M-edge graph, mmap-open to first correct answer must be at
// least 20x faster than the text parse path. Run with LARGEGRAPH=1 (CI
// job largegraph); skipped otherwise — the ratio at toy sizes is noise.
func TestLargeGraphSpeedup(t *testing.T) {
	if !largeGraph() {
		t.Skip("set LARGEGRAPH=1 to run the 10M-edge speedup gate")
	}
	f := getLoadFixture(t)
	if f.edges < 10_000_000 {
		t.Fatalf("fixture has %d edges, want >= 10M", f.edges)
	}

	start := time.Now()
	dbText, err := loadText(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstAnswer(dbText, f); err != nil {
		t.Fatal(err)
	}
	textTime := time.Since(start)

	start = time.Now()
	dbBin, err := loadBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstAnswer(dbBin, f); err != nil {
		t.Fatal(err)
	}
	binTime := time.Since(start)
	defer dbBin.Close()

	ratio := float64(textTime) / float64(binTime)
	t.Logf("text load %v, binary open %v: %.1fx (%d edges)", textTime, binTime, ratio, f.edges)
	if ratio < 20 {
		t.Errorf("binary open is only %.1fx faster than text parse, want >= 20x", ratio)
	}
}

// genealogyFiles writes the files chainlogd boots on for a same-generation
// workload over a random genealogy of people persons: the up edges
// (child to parent) as a binary snapshot, and a program of the two sg
// rules with flat (everyone from person people/100 on, to themselves) and
// down (parent to child) as fact text, each shuffled. It returns the
// program's and the snapshot's paths.
func genealogyFiles(tb testing.TB, people int) (program, snap string) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	var up, down, flat [][2]string
	for i := 1; i < people; i++ {
		child, parent := fmt.Sprintf("p%d", i), fmt.Sprintf("p%d", rng.Intn(i))
		up = append(up, [2]string{child, parent})
		down = append(down, [2]string{parent, child})
	}
	for i := people / 100; i < people; i++ {
		flat = append(flat, [2]string{fmt.Sprintf("p%d", i), fmt.Sprintf("p%d", i)})
	}
	shuffle := func(r [][2]string) [][2]string {
		rng.Shuffle(len(r), func(i, j int) { r[i], r[j] = r[j], r[i] })
		return r
	}
	var csv, prog strings.Builder
	for _, e := range shuffle(up) {
		fmt.Fprintf(&csv, "%s,%s\n", e[0], e[1])
	}
	prog.WriteString("sg(X, Y) :- flat(X, Y).\nsg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).\n")
	for _, e := range shuffle(flat) {
		fmt.Fprintf(&prog, "flat(%s, %s).\n", e[0], e[1])
	}
	for _, e := range shuffle(down) {
		fmt.Fprintf(&prog, "down(%s, %s).\n", e[0], e[1])
	}
	dir := tb.TempDir()
	program, snap = filepath.Join(dir, "sg.dl"), filepath.Join(dir, "up.snap")
	db := NewDB()
	if _, err := db.IngestCSV(strings.NewReader(csv.String()), "up"); err != nil {
		tb.Fatal(err)
	}
	if err := db.WriteSnapshot(snap); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(program, []byte(prog.String()), 0o644); err != nil {
		tb.Fatal(err)
	}
	return program, snap
}

// BenchmarkLoadProgram is a chainlogd boot on a same-generation workload
// of 50,000 persons: OpenFiles on a snapshot-mapped up and a program of
// two rules and 99,498 facts of flat and down, then the first answer.
func BenchmarkLoadProgram(b *testing.B) {
	program, snap := genealogyFiles(b, 50_000)
	b.ReportAllocs()
	for b.Loop() {
		db, mapped, err := OpenFiles(program, snap)
		if err != nil || !mapped {
			b.Fatalf("OpenFiles: mapped %v, %v", mapped, err)
		}
		ans, err := db.Query("sg(p40000, Y)")
		if err != nil || len(ans.Rows) == 0 {
			b.Fatalf("sg(p40000, Y): %d rows, %v", len(ans.Rows), err)
		}
		db.Close()
	}
}
