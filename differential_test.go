package chainlog

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"chainlog/internal/ast"
	"chainlog/internal/naiveeval"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
)

// The differential oracle: random chain programs, random fact sets and
// random interleavings of Assert / Retract / Apply / Query are driven
// against both the chain engine (one-shot, prepared-reused-across-
// mutations, batch, streamed) and the textbook semi-naive
// reference in internal/naiveeval, which recomputes every answer from
// scratch. Any divergence is a bug in the engine's live-update path —
// exactly the class of bug the two-epoch refresh machinery could
// introduce silently.
//
// The same generator runs in two harnesses: FuzzDifferential consumes
// fuzz data as its decision stream (go test -fuzz=FuzzDifferential), and
// TestDifferentialSchedules replays a deterministic seed sweep on every
// plain `go test` run.

// chooser is the generator's decision source: a fuzzer byte stream or a
// seeded PRNG.
type chooser interface {
	intn(n int) int
}

type byteChooser struct {
	data []byte
	i    int
}

func (b *byteChooser) intn(n int) int {
	if n <= 1 {
		return 0
	}
	if b.i >= len(b.data) {
		return 0 // deterministic once the stream is exhausted
	}
	v := int(b.data[b.i])
	b.i++
	return v % n
}

type randChooser struct{ r *rand.Rand }

func (c randChooser) intn(n int) int { return c.r.Intn(n) }

// diffTemplate is one program family the generator can pick.
type diffTemplate struct {
	name string
	src  string
	// bases lists the mutable extensional predicates with their arities.
	bases []baseSpec
	// queries are query templates with '?' holes for bound constants.
	queries []string
}

type baseSpec struct {
	pred  string
	arity int
}

var diffTemplates = []diffTemplate{
	{
		name: "tc",
		src: `
tc(X, Y) :- e(X, Y).
tc(X, Z) :- e(X, Y), tc(Y, Z).
`,
		bases:   []baseSpec{{"e", 2}},
		queries: []string{"tc(?, Y)", "tc(X, ?)", "tc(X, Y)", "tc(?, ?)", "tc(X, X)"},
	},
	{
		name: "sg",
		src: `
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
`,
		bases:   []baseSpec{{"flat", 2}, {"up", 2}, {"down", 2}},
		queries: []string{"sg(?, Y)", "sg(X, ?)", "sg(X, Y)", "sg(?, ?)"},
	},
	{
		name: "nonregular",
		src: `
p(X, Y) :- a(X, Y).
p(X, Z) :- a(X, Y), p(Y, W), b(W, Z).
`,
		bases:   []baseSpec{{"a", 2}, {"b", 2}},
		queries: []string{"p(?, Y)", "p(X, ?)", "p(X, Y)", "p(?, ?)"},
	},
	{
		name: "mutual",
		src: `
p(X, Z) :- a(X, Y), q(Y, Z).
q(X, Y) :- b(X, Y).
q(X, Z) :- b(X, Y), p(Y, Z).
`,
		bases:   []baseSpec{{"a", 2}, {"b", 2}},
		queries: []string{"p(?, Y)", "q(?, Y)", "p(X, ?)", "q(X, Y)"},
	},
	{
		name: "nary",
		src: `
sg3(T, X, Y) :- flat3(T, X, Y).
sg3(T, X, Y) :- up3(T, X, X1), sg3(T, X1, Y1), down3(T, Y1, Y).
`,
		bases:   []baseSpec{{"flat3", 3}, {"up3", 3}, {"down3", 3}},
		queries: []string{"sg3(?, ?, Y)", "sg3(?, X, Y)"},
	},
	{
		// Two derived literals: two delta positions per round. Lemma 1's
		// closure identity solves the equation (tcn = e.e*), so the chain
		// route compiles for bf, fb and ff; the bb query's Section 4 route
		// does not, and a pinned Chain falls back there.
		name: "nonlinear",
		src: `
tcn(X, Y) :- e(X, Y).
tcn(X, Y) :- tcn(X, Z), tcn(Z, Y).
`,
		bases:   []baseSpec{{"e", 2}},
		queries: []string{"tcn(?, Y)", "tcn(X, ?)", "tcn(X, Y)", "tcn(?, ?)"},
	},
	{
		// A closure over a middle relation beside left recursion:
		// p = e.(c U b.e)* on the chain route.
		name: "closure",
		src: `
p(X, Y) :- e(X, Y).
p(X, Z) :- p(X, Y), c(Y, Z).
p(X, W) :- p(X, Y), b(Y, Z), p(Z, W).
`,
		bases:   []baseSpec{{"e", 2}, {"b", 2}, {"c", 2}},
		queries: []string{"p(?, Y)", "p(X, ?)", "p(X, Y)", "p(?, ?)"},
	},
	{
		// Two-sided and nonlinear, so not regular: no chain route
		// compiles, and a pinned Chain falls back to the QSQ net.
		name: "two-sided",
		src: `
p(X, Y) :- e(X, Y).
p(X, W) :- a(X, Y), p(Y, Z), b(Z, W).
p(X, Z) :- p(X, Y), p(Y, Z).
`,
		bases:   []baseSpec{{"e", 2}, {"a", 2}, {"b", 2}},
		queries: []string{"p(?, Y)", "p(X, ?)", "p(X, Y)", "p(?, ?)"},
	},
	{
		// A comparison between two atom-bound variables.
		name: "builtin",
		src: `
inc(X, Y) :- e(X, Y), X < Y.
inc(X, Z) :- e(X, Y), X < Y, inc(Y, Z).
`,
		bases:   []baseSpec{{"e", 2}},
		queries: []string{"inc(?, Y)", "inc(X, ?)", "inc(X, Y)", "inc(?, ?)"},
	},
	{
		// A repeated variable and a constant inside body atoms, and a
		// rule with its derived literal written first.
		name: "shapes",
		src: `
r(X, Y) :- e(X, Y).
r(X, Z) :- r(Y, Z), e(X, Y).
loop(X) :- e(X, X).
hub(Y) :- r(c0, Y), e(Y, Y).
`,
		bases:   []baseSpec{{"e", 2}},
		queries: []string{"r(?, Y)", "r(X, ?)", "r(X, Y)", "loop(X)", "hub(Y)", "hub(?)"},
	},
}

// diffConsts is the constant pool; small enough that asserts collide
// with existing facts and retracts often hit.
var diffConsts = [...]string{"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"}

// forcedStrategy reads the CHAINLOG_FORCE_STRATEGY environment override:
// the strategy-matrix CI job sets it to pin every handle and one-shot of
// the differential suite to one strategy, so a strategy-specific
// regression fails in the job named after it. Unset means the schedule's
// usual mixed-surface coverage.
func forcedStrategy(t testing.TB) (Strategy, bool) {
	name := os.Getenv("CHAINLOG_FORCE_STRATEGY")
	if name == "" {
		return Auto, false
	}
	s, err := ParseStrategy(name)
	if err != nil {
		t.Fatalf("CHAINLOG_FORCE_STRATEGY: %v", err)
	}
	return s, true
}

// diffState is one differential run: the engine DB, the oracle's program
// ast and fact mirror, and the prepared handles that must survive every
// mutation of the schedule.
type diffState struct {
	t        testing.TB
	c        chooser
	db       *DB
	prog     *ast.Program
	facts    *naiveeval.Facts
	tmpl     diffTemplate
	prepared map[string]*Prepared // sequential handles, one per query template
	qsq      map[string]*Prepared // Strategy: QSQNet handles
	mutation int                  // mutations applied so far (for failure reports)

	// force pins every surface to one strategy (the strategy-matrix CI
	// job); forced reports whether the override is active.
	force  Strategy
	forced bool

	// The materialized handle under differential test: its maintained
	// answer is compared against a full oracle recompute after every
	// mutation, and a change-log subscriber mirror is replayed alongside.
	view        *Materialized
	viewText    string // concrete query text for the oracle
	mirror      map[string][]string
	mirrorEpoch uint64
	mirrorGen   uint64
}

func newDiffState(t testing.TB, c chooser) *diffState {
	tmpl := diffTemplates[c.intn(len(diffTemplates))]
	force, forced := forcedStrategy(t)
	db := NewDB()
	if err := db.LoadProgram(tmpl.src); err != nil {
		t.Fatalf("template %s: %v", tmpl.name, err)
	}
	res, err := parser.Parse(tmpl.src, db.SymTab())
	if err != nil {
		t.Fatalf("template %s reparse: %v", tmpl.name, err)
	}
	s := &diffState{
		t:        t,
		c:        c,
		db:       db,
		prog:     res.Program,
		facts:    naiveeval.NewFacts(),
		tmpl:     tmpl,
		prepared: map[string]*Prepared{},
		qsq:      map[string]*Prepared{},
		force:    force,
		forced:   forced,
	}
	// The dedicated goal-directed handles pin QSQNet — except under a
	// strategy override, which owns every surface including these.
	qsqStrategy := QSQNet
	if s.forced {
		qsqStrategy = s.force
	}
	// Prepare every query template up front: these handles live through
	// the whole schedule, so each Run after a mutation exercises the
	// fact-epoch refresh path rather than a fresh compilation.
	for _, q := range tmpl.queries {
		if !strings.Contains(q, "?") {
			continue
		}
		p, err := db.Prepare(q, Options{Strategy: s.force})
		if err != nil {
			t.Fatalf("Prepare(%s): %v", q, err)
		}
		s.prepared[q] = p
		qp, err := db.Prepare(q, Options{Strategy: qsqStrategy})
		if err != nil {
			t.Fatalf("Prepare(%s, qsq): %v", q, err)
		}
		s.qsq[q] = qp
	}
	// Materialize one live view per schedule: a random query template
	// with random bindings, maintained differentially through every
	// mutation the schedule performs.
	vt := tmpl.queries[c.intn(len(tmpl.queries))]
	consts := make([]string, countHoles(vt))
	for i := range consts {
		consts[i] = diffConsts[c.intn(len(diffConsts))]
	}
	vp := s.prepared[vt]
	if vp == nil {
		p, err := db.Prepare(vt, Options{Strategy: s.force})
		if err != nil {
			t.Fatalf("Prepare(%s) for view: %v", vt, err)
		}
		vp = p
	}
	m, err := vp.Materialize(consts...)
	if err != nil {
		t.Fatalf("Materialize(%s): %v", vt, err)
	}
	s.view = m
	s.viewText = fillHoles(vt, consts)
	rows, epoch, gen := m.State()
	s.mirror = map[string][]string{}
	for _, r := range rows {
		s.mirror[rowKey(r)] = r
	}
	s.mirrorEpoch, s.mirrorGen = epoch, gen
	s.checkView()
	return s
}

// checkView compares the maintained answer set against a full oracle
// recompute and replays the change log into the subscriber mirror,
// which must converge to the same rows.
func (s *diffState) checkView() {
	s.t.Helper()
	rows, epoch := s.view.Snapshot()
	if len(rows) == 0 {
		rows = nil
	}
	wantRows, wantTrue := s.oracleRows(s.viewText)
	if len(s.view.Vars()) == 0 {
		if got := s.view.True(); got != wantTrue {
			s.t.Fatalf("after %d mutations (%s): view %s = %v, oracle %v",
				s.mutation, s.tmpl.name, s.viewText, got, wantTrue)
		}
	} else if !reflect.DeepEqual(rows, wantRows) {
		s.t.Fatalf("after %d mutations (%s): view %s\n got %v\nwant %v",
			s.mutation, s.tmpl.name, s.viewText, rows, wantRows)
	}
	if epoch != s.db.FactEpoch() {
		s.t.Fatalf("after %d mutations: view epoch %d, fact epoch %d",
			s.mutation, epoch, s.db.FactEpoch())
	}

	// Subscriber mirror: resume from the last cursor; a stale cursor
	// (recompute or ring overflow) resets from a fresh snapshot, exactly
	// as a /v1/watch client would.
	sets, ok := s.view.Changes(s.mirrorEpoch, s.mirrorGen)
	if !ok {
		fresh, e, g := s.view.State()
		s.mirror = map[string][]string{}
		for _, r := range fresh {
			s.mirror[rowKey(r)] = r
		}
		s.mirrorEpoch, s.mirrorGen = e, g
	} else {
		for _, cs := range sets {
			if cs.Epoch <= s.mirrorEpoch {
				s.t.Fatalf("change log out of order: %d after cursor %d", cs.Epoch, s.mirrorEpoch)
			}
			// Both halves are read against the rows before the change set:
			// a row removed and re-added by one write is in neither.
			removed := map[string]bool{}
			for _, r := range cs.Removed {
				k := rowKey(r)
				if _, present := s.mirror[k]; !present {
					s.t.Fatalf("change log removes absent row %v", r)
				}
				removed[k] = true
			}
			added := map[string][]string{}
			for _, r := range cs.Added {
				k := rowKey(r)
				if removed[k] {
					s.t.Fatalf("change set %d both removes and adds row %v", cs.Epoch, r)
				}
				if _, present := s.mirror[k]; present || added[k] != nil {
					s.t.Fatalf("change log adds duplicate row %v", r)
				}
				added[k] = r
			}
			for k := range removed {
				delete(s.mirror, k)
			}
			for k, r := range added {
				s.mirror[k] = r
			}
			s.mirrorEpoch = cs.Epoch
		}
		if s.mirrorEpoch < epoch {
			s.mirrorEpoch = epoch
		}
	}
	if len(s.mirror) != len(rows) {
		s.t.Fatalf("after %d mutations: mirror has %d rows, view %d", s.mutation, len(s.mirror), len(rows))
	}
	for _, r := range rows {
		if _, present := s.mirror[rowKey(r)]; !present {
			s.t.Fatalf("after %d mutations: mirror missing row %v", s.mutation, r)
		}
	}
}

// randomFact picks a base predicate and a constant vector.
func (s *diffState) randomFact() (string, []string) {
	b := s.tmpl.bases[s.c.intn(len(s.tmpl.bases))]
	args := make([]string, b.arity)
	for i := range args {
		args[i] = diffConsts[s.c.intn(len(diffConsts))]
	}
	return b.pred, args
}

func (s *diffState) internArgs(args []string) []symtab.Sym {
	syms := make([]symtab.Sym, len(args))
	for i, a := range args {
		syms[i] = s.db.Intern(a)
	}
	return syms
}

// assertOne mutates engine and oracle identically.
func (s *diffState) assertOne(pred string, args []string) {
	s.mutation++
	got, err := s.db.Assert(pred, args...)
	want := s.facts.Assert(pred, s.internArgs(args))
	if got != want || err != nil {
		s.t.Fatalf("mutation %d: Assert(%s, %v) = %v, %v; oracle %v", s.mutation, pred, args, got, err, want)
	}
	s.checkView()
}

func (s *diffState) retractOne(pred string, args []string) {
	s.mutation++
	got, err := s.db.Retract(pred, args...)
	want := s.facts.Retract(pred, s.internArgs(args))
	if got != want || err != nil {
		s.t.Fatalf("mutation %d: Retract(%s, %v) = %v, %v; oracle %v", s.mutation, pred, args, got, err, want)
	}
	s.checkView()
}

// applyBatch funnels several mutations through one Delta/Apply call.
// Because a delta may touch the same fact more than once (including
// assert-then-retract and retract-then-assert conflicts), the expected
// ApplyResult is the NET effect: per touched fact, presence before the
// delta versus presence after it.
func (s *diffState) applyBatch() {
	s.mutation++
	d := &Delta{}
	type presence struct{ before, after bool }
	touched := map[string]*presence{}
	n := 1 + s.c.intn(6)
	for i := 0; i < n; i++ {
		pred, args := s.randomFact()
		syms := s.internArgs(args)
		k := pred + "\x00" + fmt.Sprint(syms)
		if s.c.intn(3) == 0 {
			d.Retract(pred, args...)
			was := s.facts.Retract(pred, syms)
			if p := touched[k]; p != nil {
				p.after = false
			} else {
				touched[k] = &presence{before: was, after: false}
			}
		} else {
			d.Assert(pred, args...)
			wasNew := s.facts.Assert(pred, syms)
			if p := touched[k]; p != nil {
				p.after = true
			} else {
				touched[k] = &presence{before: !wasNew, after: true}
			}
		}
	}
	wantAsserted, wantRetracted := 0, 0
	for _, p := range touched {
		switch {
		case p.after && !p.before:
			wantAsserted++
		case p.before && !p.after:
			wantRetracted++
		}
	}
	epochBefore := s.db.FactEpoch()
	res := mustApply(s.t, s.db, d)
	if res.Asserted != wantAsserted || res.Retracted != wantRetracted {
		s.t.Fatalf("mutation %d: Apply = %+v, oracle wants {%d %d}", s.mutation, res, wantAsserted, wantRetracted)
	}
	moved := s.db.FactEpoch() != epochBefore
	wantMove := wantAsserted+wantRetracted > 0
	if moved != wantMove {
		s.t.Fatalf("mutation %d: epoch moved=%v for net {%d %d}", s.mutation, moved, wantAsserted, wantRetracted)
	}
	s.checkView()
}

// fillHoles substitutes constants for '?' in a query template.
func fillHoles(tmpl string, consts []string) string {
	var b strings.Builder
	k := 0
	for _, r := range tmpl {
		if r == '?' {
			b.WriteString(consts[k])
			k++
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

func countHoles(tmpl string) int { return strings.Count(tmpl, "?") }

// oracleRows computes the reference answer for a concrete query text and
// renders it in the engine's answer format (string rows, engine sort
// order, nil when empty).
func (s *diffState) oracleRows(text string) ([][]string, bool) {
	q, err := parser.ParseQuery(text, s.db.SymTab())
	if err != nil {
		s.t.Fatalf("oracle parse %q: %v", text, err)
	}
	rows := naiveeval.Answer(s.prog, s.facts, s.db.SymTab(), q)
	if len(freeVars(q)) == 0 {
		return nil, len(rows) > 0
	}
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		row := make([]string, len(r))
		for i, v := range r {
			row[i] = s.db.Name(v)
		}
		out = append(out, row)
	}
	sortRows(out)
	if len(out) == 0 {
		return nil, false
	}
	return out, false
}

// checkAnswer compares one engine answer against the oracle.
func (s *diffState) checkAnswer(how, text string, ans *Answer) {
	wantRows, wantTrue := s.oracleRows(text)
	if len(ans.Vars) == 0 {
		if ans.True != wantTrue {
			s.t.Fatalf("after %d mutations (%s): %s [%s] = %v, oracle %v", s.mutation, s.tmpl.name, text, how, ans.True, wantTrue)
		}
		return
	}
	gotRows := ans.Rows
	if len(gotRows) == 0 {
		gotRows = nil
	}
	if !reflect.DeepEqual(gotRows, wantRows) {
		s.t.Fatalf("after %d mutations (%s): %s [%s]\n got %v\nwant %v", s.mutation, s.tmpl.name, text, how, gotRows, wantRows)
	}
}

// query runs one randomly chosen query through one randomly chosen
// engine surface and compares it with the oracle.
func (s *diffState) query() {
	qt := s.tmpl.queries[s.c.intn(len(s.tmpl.queries))]
	nh := countHoles(qt)
	consts := make([]string, nh)
	for i := range consts {
		consts[i] = diffConsts[s.c.intn(len(diffConsts))]
	}
	text := fillHoles(qt, consts)

	p := s.prepared[qt]
	mode := s.c.intn(8)
	switch {
	case mode == 0 || p == nil:
		// One-shot through the plan cache.
		ans, err := s.db.QueryOpts(text, Options{Strategy: s.force})
		if err != nil {
			s.t.Fatalf("Query(%s): %v", text, err)
		}
		s.checkAnswer("one-shot", text, ans)
	case mode <= 2:
		// The prepared handle created before any mutation.
		ans, err := p.Run(consts...)
		if err != nil {
			s.t.Fatalf("prepared Run(%s): %v", text, err)
		}
		s.checkAnswer("prepared", text, ans)
	case mode == 3:
		// Batch: this vector plus a couple of random ones, every answer
		// checked against its own oracle query.
		sets := [][]string{consts}
		for extra := s.c.intn(3); extra > 0; extra-- {
			more := make([]string, nh)
			for i := range more {
				more[i] = diffConsts[s.c.intn(len(diffConsts))]
			}
			sets = append(sets, more)
		}
		answers, err := p.RunBatch(sets)
		if err != nil {
			s.t.Fatalf("RunBatch(%s): %v", qt, err)
		}
		for i, ans := range answers {
			s.checkAnswer("batch", fillHoles(qt, sets[i]), ans)
		}
	case mode == 4:
		// Streamed rows re-materialized by hand. Fully bound templates
		// have no row stream (their result is the boolean Answer.True);
		// check those through Run instead.
		if len(p.Vars()) == 0 {
			ans, err := p.Run(consts...)
			if err != nil {
				s.t.Fatalf("prepared Run(%s): %v", text, err)
			}
			s.checkAnswer("prepared", text, ans)
			return
		}
		var rows [][]string
		err := p.RunSymsFunc(func(row []symtab.Sym) {
			out := make([]string, len(row))
			for i, v := range row {
				out[i] = s.db.Name(v)
			}
			rows = append(rows, out)
		}, s.internArgs(consts)...)
		if err != nil {
			s.t.Fatalf("RunSymsFunc(%s): %v", text, err)
		}
		sortRows(rows)
		wantRows, _ := s.oracleRows(text)
		if len(rows) == 0 {
			rows = nil
		}
		if !reflect.DeepEqual(rows, wantRows) {
			s.t.Fatalf("after %d mutations (%s): %s [stream]\n got %v\nwant %v", s.mutation, s.tmpl.name, text, rows, wantRows)
		}
	case mode == 5:
		// A cross-strategy one-shot: a pinned chain (which falls back where
		// its route does not compile), the bottom-up baseline, the
		// goal-directed net and Auto, so the fuzzer also proves the
		// cost-based optimizer can never change an answer, only a route.
		// Under a forced override the pin owns this surface too.
		strat := []Strategy{Chain, Seminaive, Auto, QSQNet}[s.c.intn(4)]
		if s.forced {
			strat = s.force
		}
		ans, err := s.db.QueryOpts(text, Options{Strategy: strat})
		if err != nil {
			s.t.Fatalf("QueryOpts(%s, %v): %v", text, strat, err)
		}
		s.checkAnswer(strat.String(), text, ans)
	case mode == 6:
		// The goal-directed prepared handle, alive since before any
		// mutation: its compiled net must survive fact churn in place.
		ans, err := s.qsq[qt].Run(consts...)
		if err != nil {
			s.t.Fatalf("qsq Run(%s): %v", text, err)
		}
		s.checkAnswer("qsq prepared", text, ans)
	default:
		// The goal-directed handle through the remaining surfaces: batch
		// and the streaming entry point (which falls back to the
		// materializing path for non-chain plans — the fallback is the
		// surface under test).
		qp := s.qsq[qt]
		if s.c.intn(2) == 0 {
			sets := [][]string{consts}
			for extra := s.c.intn(3); extra > 0; extra-- {
				more := make([]string, nh)
				for i := range more {
					more[i] = diffConsts[s.c.intn(len(diffConsts))]
				}
				sets = append(sets, more)
			}
			answers, err := qp.RunBatch(sets)
			if err != nil {
				s.t.Fatalf("qsq RunBatch(%s): %v", qt, err)
			}
			for i, ans := range answers {
				s.checkAnswer("qsq batch", fillHoles(qt, sets[i]), ans)
			}
			return
		}
		if len(qp.Vars()) == 0 {
			ans, err := qp.Run(consts...)
			if err != nil {
				s.t.Fatalf("qsq Run(%s): %v", text, err)
			}
			s.checkAnswer("qsq prepared", text, ans)
			return
		}
		var rows [][]string
		err := qp.RunSymsFunc(func(row []symtab.Sym) {
			out := make([]string, len(row))
			for i, v := range row {
				out[i] = s.db.Name(v)
			}
			rows = append(rows, out)
		}, s.internArgs(consts)...)
		if err != nil {
			s.t.Fatalf("qsq RunSymsFunc(%s): %v", text, err)
		}
		sortRows(rows)
		wantRows, _ := s.oracleRows(text)
		if len(rows) == 0 {
			rows = nil
		}
		if !reflect.DeepEqual(rows, wantRows) {
			s.t.Fatalf("after %d mutations (%s): %s [qsq stream]\n got %v\nwant %v", s.mutation, s.tmpl.name, text, rows, wantRows)
		}
	}
}

// step performs one schedule step.
func (s *diffState) step() {
	switch r := s.c.intn(10); {
	case r < 3: // 30%: single assert
		pred, args := s.randomFact()
		s.assertOne(pred, args)
	case r < 5: // 20%: single retract (often of a live fact)
		pred, args := s.randomFact()
		s.retractOne(pred, args)
	case r < 6: // 10%: batched delta
		s.applyBatch()
	default: // 40%: query + compare
		s.query()
	}
}

// runDifferential drives one full schedule from a decision source.
func runDifferential(t testing.TB, c chooser, steps int) {
	s := newDiffState(t, c)
	// Seed a few facts so early queries are not all empty.
	for i := 0; i < 4; i++ {
		pred, args := s.randomFact()
		s.assertOne(pred, args)
	}
	for i := 0; i < steps; i++ {
		s.step()
	}
	// The maintained view must agree with the oracle at the final state,
	// and Close must detach it cleanly.
	s.checkView()
	s.view.Close()
	if !s.view.Closed() || s.db.Views() != 0 {
		t.Fatalf("view not detached: closed=%v views=%d", s.view.Closed(), s.db.Views())
	}
	// Every prepared handle answers once more at the final state.
	for qt, p := range s.prepared {
		nh := countHoles(qt)
		consts := make([]string, nh)
		for i := range consts {
			consts[i] = diffConsts[s.c.intn(len(diffConsts))]
		}
		ans, err := p.Run(consts...)
		if err != nil {
			t.Fatalf("final Run(%s): %v", qt, err)
		}
		s.checkAnswer("final", fillHoles(qt, consts), ans)
	}
}

// TestDifferentialSchedules is the deterministic property suite: a seed
// sweep of the same generator the fuzzer drives, run on every plain
// `go test`, covering Assert/Retract/Apply interleavings against the
// naive reference on all program templates and all query surfaces.
func TestDifferentialSchedules(t *testing.T) {
	steps := 40
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runDifferential(t, randChooser{rand.New(rand.NewSource(int64(seed)))}, steps)
		})
	}
}

// FuzzDifferential lets the fuzzer search the schedule space directly:
// the input bytes are the generator's decision stream. Run with
//
//	go test -run '^$' -fuzz '^FuzzDifferential$' -fuzztime 30s .
func FuzzDifferential(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte("assert-retract-query-assert-retract-query-!!"))
	for seed := 0; seed < 4; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		data := make([]byte, 96)
		r.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("schedule too long")
		}
		// Cap steps by the stream length so exhausted streams (which
		// repeat choice 0 forever) do not waste time on degenerate tails.
		steps := len(data)/2 + 4
		if steps > 64 {
			steps = 64
		}
		runDifferential(t, &byteChooser{data: data}, steps)
	})
}

// rowKey is the mirror's key for an answer row: the schedule replays a
// view's change sets into a map of its own and compares with the view.
func rowKey(row []string) string { return strings.Join(row, "\x00") }
