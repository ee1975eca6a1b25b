package main

import (
	"bufio"
	"bytes"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"chainlog/internal/naiveeval"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
)

// testSizes keep every generator's shape and shrink it until the textbook
// evaluator answers in milliseconds.
var testSizes = sizes{
	treeDepth: 6, lookupLevel: 2, lookupBindings: 12, wideLevel: 1,
	ladder: 10, ladderBindings: 4,
	chain: 10, chainBindings: 6, family: 14,
	people: 60, peopleBindings: 8,
	writeDepth: 5, writeKeys: 6,
}

func TestSameSeedSameInput(t *testing.T) {
	for _, w := range workloads {
		a := w.gen(rand.New(rand.NewSource(7)), testSizes)
		b := w.gen(rand.New(rand.NewSource(7)), testSizes)
		c := w.gen(rand.New(rand.NewSource(8)), testSizes)
		if a.sha256 != b.sha256 {
			t.Errorf("%s: seed 7 gave input %s and then %s", w.name, a.sha256, b.sha256)
		}
		if a.sha256 == c.sha256 {
			t.Errorf("%s: seeds 7 and 8 gave the same input %s", w.name, a.sha256)
		}
		if len(a.ops) == 0 || len(a.ready) == 0 {
			t.Errorf("%s: %d ops, %d readiness probes", w.name, len(a.ops), len(a.ready))
		}
	}
}

// naiveDB loads an input the way the daemon does, into the textbook evaluator.
func naiveDB(t *testing.T, in *input) (*parser.Result, *naiveeval.Facts, *symtab.Table) {
	t.Helper()
	st := symtab.NewTable()
	parsed, err := parser.Parse(in.program, st)
	if err != nil {
		t.Fatal(err)
	}
	facts := naiveeval.NewFacts()
	for _, f := range parsed.Facts {
		facts.Assert(f.Pred, f.Args)
	}
	sc := bufio.NewScanner(bytes.NewReader(in.csv))
	for sc.Scan() {
		src, dst, _ := strings.Cut(sc.Text(), ",")
		facts.Assert(in.csvRel, []symtab.Sym{st.Intern(src), st.Intern(dst)})
	}
	return parsed, facts, st
}

// The oracles share nothing with internal/naiveeval; on small instances of
// every workload the two must give every op of the sequence the same answer.
func TestOraclesAgreeWithNaiveEval(t *testing.T) {
	for _, w := range workloads {
		in := w.gen(rand.New(rand.NewSource(3)), testSizes)
		parsed, facts, st := naiveDB(t, in)
		checked := 0
		for i := range in.ops {
			o := &in.ops[i]
			if o.write {
				for _, d := range o.delta {
					args := []symtab.Sym{st.Intern(d.Args[0]), st.Intern(d.Args[1])}
					if d.Op == "assert" {
						facts.Assert(d.Pred, args)
					} else {
						facts.Retract(d.Pred, args)
					}
				}
				continue
			}
			if checked++; checked > 12 {
				break
			}
			q, err := parser.ParseQuery(strings.Replace(o.template, "?", o.args[0], 1), st)
			if err != nil {
				t.Fatal(err)
			}
			var got digest
			for _, row := range naiveeval.Answer(parsed.Program, facts, st, q) {
				got.add(st.Name(row[0]))
			}
			if got != o.want {
				t.Errorf("%s op %d %s %v: naiveeval has %d rows (sum %x), the oracle %d rows (sum %x)",
					w.name, i, o.template, o.args, got.rows, got.sum, o.want.rows, o.want.sum)
			}
		}
		if checked == 0 {
			t.Errorf("%s: no read was checked", w.name)
		}
	}
}

func TestWriteSequenceClosesItsCycle(t *testing.T) {
	in := genWriteWatch(rand.New(rand.NewSource(5)), testSizes)
	w := in.writes
	state := func(k int) string {
		var edges []string
		for _, e := range w.stateAfter(k) {
			edges = append(edges, e.src+">"+e.dst)
		}
		sort.Strings(edges)
		return strings.Join(edges, " ")
	}
	if state(0) != state(len(w.keys)) || state(1) != state(len(w.keys)+1) {
		t.Error("the store is not back in its initial state after one pass over the keys")
	}
	if state(0) == state(1) {
		t.Error("a write left the store unchanged")
	}
	for i := 0; i < len(in.ops); i += 2 {
		if o := in.ops[i]; !o.write || o.asserted != 1 || o.retracted != 1 || in.ops[i+1].write {
			t.Fatalf("ops %d and %d are not a write of one assertion and one retraction followed by a read", i, i+1)
		}
	}
}

func TestDigestOfBody(t *testing.T) {
	want := digestOfRows([][]string{{"t2"}, {"t3", "x"}, {"t40"}})
	for _, body := range []string{
		`{"result":{"vars":["Y"],"rows":[["t2"],["t3","x"],["t40"]]}}` + "\n",
		`{"result":{"vars":["Y"],"rows":[["t40"],["t2"],["t3","x"]]}}`,
		// An escape sends the scanner to the JSON decoder.
		`{"result":{"vars":["Y"],"rows":[["t\u0032"],["t3","x"],["t40"]]}}`,
	} {
		got, err := digestOfBody([]byte(body))
		if err != nil || got != want {
			t.Errorf("digestOfBody(%s) = %v, %v; want %v", body, got, err, want)
		}
	}
	if got, err := digestOfBody([]byte(`{"result":{"vars":["Y"],"rows":[]}}`)); err != nil || got != (digest{}) {
		t.Errorf("empty answer: %v, %v", got, err)
	}
	if dup, _ := digestOfBody([]byte(`{"result":{"rows":[["t2"],["t2"],["t3","x"],["t40"]]}}`)); dup == want {
		t.Error("a duplicated row went unnoticed")
	}
	if _, err := digestOfBody([]byte(`{"error":"no"}`)); err == nil {
		t.Error("an error body was digested")
	}
}

func TestOrderStatistics(t *testing.T) {
	if m := median([]float64{5, 1, 4}); m != 4 {
		t.Errorf("median of three = %v", m)
	}
	if m := median([]float64{5, 1, 4, 2}); m != 3 {
		t.Errorf("median of four = %v", m)
	}
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// = [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	if s := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}); math.Abs(s-27.5/13.5) > 1e-12 {
		t.Errorf("spread = %v", s)
	}
	var d []time.Duration
	for i := 100; i >= 1; i-- {
		d = append(d, time.Duration(i))
	}
	if p := percentile(d, 0.99); p != 99 {
		t.Errorf("p99 of 1..100 = %v", p)
	}
	if p := percentile(d, 0.50); p != 50 {
		t.Errorf("p50 of 1..100 = %v", p)
	}
	if p := percentile(d[:1], 0.99); p != 100 {
		t.Errorf("p99 of one sample = %v", p)
	}
}

func TestLagsJoinByEpoch(t *testing.T) {
	t0 := time.Unix(0, 0)
	sent := []stamp{{5, t0}, {6, t0.Add(10)}, {7, t0.Add(20)}}
	seen := []stamp{{6, t0.Add(13)}, {5, t0.Add(4)}}
	got := lags(sent, seen)
	if len(got) != 2 || got[0] != 4 || got[1] != 3 {
		t.Errorf("lags = %v", got)
	}
}

// BENCHMARK.json is the list of names: every name is well formed, the
// workloads are the ones this command runs, and the end-to-end metrics are
// the ones the untraced run reports. The per-layer names are held against the
// traced run's values when it runs (report refuses a difference).
func TestDeclaredNames(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	declare := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, '_', '.' and '-'", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the command runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		declare(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the command", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, m := range append(append([]metricDecl(nil), b.EndToEnd...), b.PerLayer...) {
		declare(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	e := &endToEnd{setUps: []time.Duration{time.Second}, rounds: []round{{wall: time.Second, cpu: time.Second, t: &tally{query: []time.Duration{time.Millisecond}}}}}
	if _, err := report(b.EndToEnd, e.metrics(), 1, 0); err != nil {
		t.Error(err)
	}
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v is not in (0, 0.25]", m.Name, m.Bound)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
}
