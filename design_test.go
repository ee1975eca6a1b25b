package chainlog_test

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// A shape is one rule of the design's shape: a pattern that may match
// no line, or exactly n lines, of the files a set of globs selects. The
// rules keep what the simplifications removed from coming back (a second
// plan type, a second write path, a string key for a tuple, …) and what
// they left single staying single (one db.mu.Lock(), one probe site).
type shape struct {
	step    string   // the rule's name, which its subtest takes
	paths   []string // globs from the repository root; "**" spans directories
	skip    []string // path prefixes left out
	tests   bool     // _test.go files are searched too
	pattern string   // RE2, matched line by line
	n       int      // matching lines allowed: 0, exactly n, or any
	in      string   // "file" or "file:func" every match must lie in
	example string   // a line the pattern must match, so a rotted pattern fails
	msg     string   // what a match means
	from    []string // package directories: pattern is matched against every import they reach instead
}

const (
	anyNumber = -1  // n: any number of matching lines
	anyLine   = "^" // pattern: a file that exists at all
)

// gone is the rule that a removed package stays removed.
func gone(step, dir string) shape {
	return shape{step: step, paths: []string{dir + "/**"}, tests: true, pattern: anyLine,
		example: "package " + path.Base(dir), msg: dir + " is back"}
}

var (
	rootGo      = []string{"*.go"}
	allGo       = []string{"**/*.go"}
	chainevalGo = []string{"internal/chaineval/*.go"}
)

var shapes = []shape{
	{step: "import boundary", from: []string{".", "cmd/chainlogd", "cmd/chainlog", "cmd/chainlogctl", "internal/server"},
		pattern: `chainlog/internal/paper/`, example: "chainlog/internal/paper/hn",
		msg: "serving packages import internal/paper"},
	{step: "one route table", paths: rootGo, n: anyNumber, in: "prepare.go",
		pattern: `equations\.Transform\(|binchain\.Transform\(|binchain\.FromAdorned\(|qsqnet\.Compile\(|adorn\.Adorn\(|magic\.Rewrite\(|bottomup\.CompileProgram\(`,
		example: "\tsys, err := equations.Transform(prog)",
		msg:     "route compilers are called from more than one root-package file"},
	{step: "one plan cache", paths: allGo, tests: true,
		pattern: `planRegistry|maxRegistryEntries|func \(p \*Prepared\) Observe`,
		example: "func (p *Prepared) Observe(st Stats) {",
		msg:     "the serving registry or Prepared.Observe is back"},
	{step: "one tuple identity", paths: allGo, skip: []string{"bench/", "internal/naiveeval/"},
		pattern: `bottomup\.Key|func Key\(|rowKey|factKey|predOfKey|factSet|tupleKey|InternTuple|TupleElems|IsTuple`,
		example: "func Key(pred string, row []symtab.Sym) string {",
		msg:     "a tuple is keyed by a string again"},
	{step: "one compiled system", paths: allGo, skip: []string{"bench/"},
		pattern: `QueryInverse|PrecompileInverse|QueryBatchInverse|reversedSystem|reverseExpr|cacheKey|atomic\.Pointer\[map`,
		example: "func (e *Engine) QueryInverse(pred string, b symtab.Sym) (*Result, error) {",
		msg:     "the chain engine grew a second direction or a copy-on-write cache"},
	{step: "one long-poll loop", paths: []string{"internal/server/*.go"}, n: 1, in: "internal/server/feed.go:serveFeed",
		pattern: `case <-s\.drainCh`, example: "\t\tcase <-s.drainCh:",
		msg: "want exactly one long-poll wait on drainCh"},
	{step: "one long-poll loop", paths: allGo,
		pattern: `snapSuffixLegacy|restoreText`, example: `const snapSuffixLegacy = ".dl"`,
		msg: "the text snapshot reader is back on the recovery path"},
	{step: "one work tally", paths: allGo, tests: true,
		pattern: `CounterSet|AddBatch|SuccessorsRaw|PredecessorsRaw|EachRaw|CountersSnapshot|ResetCounters|func \(db \*DB\) Counters\(|relCounts|probeStat|"chainlog/internal/graph"`,
		example: "\t\"chainlog/internal/graph\"",
		msg:     "a second probe count or the graph package is back"},
	gone("one work tally", "internal/graph"),
	gone("the cost model reads what it prices", "internal/stats"),
	{step: "the cost model reads what it prices", paths: allGo,
		pattern: `\b(DegreeEach|OutHist|InHist|HistBuckets|MaxOut|MaxIn|nonBinaryEdges)\b`,
		example: "func (r *Relation) MaxOut() int {",
		msg:     "an unpriced statistic is back"},
	{step: "one reverse lookup", paths: []string{"internal/symtab/base.go"},
		pattern: `sort\.`, example: "\ti := sort.Search(b.n, func(i int) bool {",
		msg: "internal/symtab/base.go sorts or binary-searches again"},
	{step: "one name order", paths: []string{"internal/snapshot/format.go", "ingest.go"},
		pattern: `strings\.Compare|slices\.Sort|sort\.[A-Z]`, example: "\tslices.SortFunc(names, strings.Compare)",
		msg: "names are sorted one by one again"},
	{step: "one name order", paths: []string{"ingest.go"},
		pattern: `map\[string\]symtab\.Sym|\.Intern\(`, example: "\tids := map[string]symtab.Sym{}",
		msg: "names are interned one by one again"},
	{step: "one name store", paths: []string{"internal/symtab/**/*.go"},
		pattern: `map\[string\]Sym|byName`, example: "\tbyName map[string]Sym",
		msg: "a second name store is back"},
	{step: "one name store", paths: []string{"internal/parser/**/*.go"}, tests: true,
		pattern: `func internAll`, example: "func internAll(st *symtab.Table, names []string) []symtab.Sym {",
		msg: "the parser's copy is back"},
	{step: "one chain plan", paths: allGo,
		pattern: `directPlan|section4Plan|streamPlan`, example: "type directPlan struct {",
		msg: "a second chain plan type is back"},
	{step: "one chain plan", paths: []string{"prepare.go"}, n: 3,
		pattern: `^type [[:alnum:]_]+Plan struct`, example: "type chainPlan struct {",
		msg: "want 3 plan types in prepare.go"},
	{step: "one write path", paths: rootGo, n: 1, in: "chainlog.go:writeLocked",
		pattern: `db\.mu\.Lock\(\)`, example: "\tdb.mu.Lock()",
		msg: "want exactly one db.mu.Lock() in root non-test Go, in DB.writeLocked"},
	{step: "one write path", paths: []string{"**/*.go", "**/README.md"}, tests: true,
		pattern: `AssertSyms|RetractSyms|AssertBatch`, example: "func (db *DB) AssertBatch(facts []Fact) error {",
		msg: "a second write path is back"},
	{step: "one write order", paths: []string{"internal/server/**/*.go"},
		pattern: `db\.Apply\(|commitMu|\.Net\(`, example: "\tif _, err := s.db.Apply(d); err != nil {",
		msg: "internal/server applies a write before logging it, or checks it twice"},
	{step: "one write order", paths: rootGo, tests: true,
		pattern: `func \(db \*DB\) Net\b`, example: "func (db *DB) Net(d Delta) (Delta, error) {",
		msg: "the DB checks a write twice"},
	{step: "one epoch signal", paths: []string{"internal/server/*.go"},
		pattern: `epochCh|notifyEpoch|epochUpdates`, example: "\tepochCh chan struct{}",
		msg: "a second epoch signal is back"},
	{step: "one epoch signal", paths: []string{"internal/wal/*.go"}, tests: true,
		pattern: `func \(l \*Log\) Updates`, example: "func (l *Log) Updates() <-chan struct{} {",
		msg: "the log broadcasts its epoch again"},
	{step: "one epoch signal", paths: rootGo, tests: true,
		pattern: `deltaOp`, example: "type deltaOp struct {",
		msg: "a second op type is back"},
	{step: "one net", paths: rootGo,
		pattern: `edb\.NewTable\(|fresh \[\]string|map\[string\]\*rows`, example: "\t\t\t\tr = &rows{t: edb.NewTable(len(syms))}",
		msg: "a Delta nets through per-predicate tables or remaps fresh names again"},
	{step: "one run path", paths: rootGo,
		pattern: `runStream|runBatch|rowBufPool|RunSymsBatch`, example: "func (p *Prepared) runBatch(ctx context.Context, args [][]string) error {",
		msg: "a second run path is back"},
	{step: "one run path", paths: rootGo, n: anyNumber, in: "explain.go",
		pattern: `\.\(\*chainPlan\)`, example: "\tif cp, ok := pl.(*chainPlan); ok {",
		msg: "a run path type-switches on *chainPlan"},
	{step: "one literal entry", paths: rootGo, n: 1, in: "plancache.go:PrepareLiteral",
		pattern: `parser\.ParseQueryNames\(`, example: "\tq, names, err := parser.ParseQueryNames(query)",
		msg: "want exactly one parser.ParseQueryNames( in root non-test Go, in DB.PrepareLiteral"},
	{step: "one literal entry", paths: rootGo,
		pattern: `func \(db \*DB\) (QueryBatch|QueryBatchOpts|QueryCtx|SaveFacts|Analysis)\(`,
		example: "func (db *DB) QueryBatch(queries []string) ([]*Answer, error) {",
		msg:     "a second way into a query, a text save or the program analysis is back"},
	{step: "names at the edge", paths: []string{"prepare.go", "batch.go"},
		pattern: `db\.render\(|AppendNames\(`, example: "\trows := db.render(res)",
		msg: "a plan or run path names its rows"},
	{step: "names at the edge", paths: rootGo, n: 1, in: "query.go:render",
		pattern: `AppendNames\(`, example: "\tarena := st.AppendNames(make([]string, 0, len(cells)), cells)",
		msg: "want AppendNames called from exactly one root non-test function, render"},
	{step: "names at the edge", paths: rootGo,
		pattern: `sortRows`, example: "\tsortRows(ans.Rows)",
		msg: "rows are sorted as strings again"},
	{step: "four strategies", paths: []string{"*.go", "internal/optimizer/**/*.go", "internal/server/**/*.go", "cmd/**/*.go", "examples/**/*.go"},
		pattern: `MagicAvailable|CostMagicFact|StrategyMagic|magicAlternative|Strategy: *(Magic|Naive)\b|\.Naive\(`,
		example: "\topts := chainlog.Options{Strategy: Magic}",
		msg:     "a retired strategy is back on the serving path"},
	{step: "options shape plans", paths: []string{"*.go", "cmd/**/*.go", "internal/server/**/*.go", "examples/**/*.go"},
		pattern: `WriterTracer|traceMaxNodes|opts\.Trace|Options\.Trace|MaxIterations|DisableCyclicGuard|opts\.Parallelism|cfg\.Parallelism|Parallelism:|\bStrict\b|\.workers\(\)|bindingOrderLocked|chaineval\.FanOut`,
		example: "\t\tParallelism: 4,",
		msg:     "a plan option is back that does not shape the plan"},
	{step: "options shape plans", paths: []string{"plancache.go"},
		pattern: `maxNodes`, example: "\tmaxNodes int",
		msg: "the node cap is part of the plan-cache key again"},
	{step: "options shape plans", paths: chainevalGo,
		pattern: `Parallelism`, example: "\tParallelism int",
		msg: "a run's width is fixed at engine build again"},
	{step: "options shape plans", paths: rootGo,
		pattern: `t\.parallel\b|func \(t \*routes\) choose`, example: "\tif t.parallel {",
		msg: "the route table freezes a width again"},
	{step: "one plan choice", paths: rootGo,
		pattern: `effective\.Store|estWork|obsWork|installDecision|workersLocked`, example: "\tc.effective.Store(d)",
		msg: "plan state is mirrored beside the one choice"},
	{step: "one re-optimization trigger", paths: []string{"*.go", "internal/optimizer/*.go"},
		pattern: `Drifted\(|DriftFraction|DriftMinTuples|currentSizesLocked|p\.factEpoch|\.Sizes\b`,
		example: "\tdrifted := c.decision.Drifted(db.currentSizesLocked(c.decision))",
		msg:     "a write re-costs a plan again: only a run's measured work may"},
	{step: "a served fixpoint runs on pooled scratch", paths: rootGo,
		pattern: `\.Seminaive\(`, example: "\tres, err := prog.Seminaive(ctx, db.store)",
		msg: "a served fixpoint builds a fresh derived store again"},
	{step: "one semi-naive evaluator", paths: []string{"internal/qsqnet/**/*.go"},
		pattern: `ctxpoll\.|edb\.NewTable|NewJoin\(`, example: "\ttab := edb.NewTable(2)",
		msg: "qsqnet evaluates again"},
	{step: "one semi-naive evaluator", paths: rootGo, tests: true,
		pattern: `qsqnetPlan`, example: "type qsqnetPlan struct {",
		msg: "qsqnet has a plan type of its own again"},
	{step: "one batch regime", paths: []string{"internal/chaineval/**/*.go", "internal/binchain/**/*.go", "internal/edb/**/*.go"},
		pattern: `allPairsDenseLimit|reachWordBudget|SymBounder|SymBound\(|map\[node\]int32|map\[symtab\.Sym\]bool`,
		example: "\tids map[node]int32",
		msg:     "a second batch regime or a domain budget is back"},
	{step: "one visited set", paths: chainevalGo,
		pattern: `sparseVisited|denseVisitedLimit|denseWordBudget|migrateToSparse|map\[node\]bool|slices\.Sort\(sc\.answers`,
		example: "\tsparseVisited map[node]bool",
		msg:     "a second visited-set regime is back"},
	{step: "one node insertion", paths: chainevalGo, n: 1, in: "internal/chaineval/chaineval.go:visit",
		pattern: `\.G\.visit\(`, example: "\tif !sc.G.visit(q, u) {",
		msg: "want exactly one .G.visit( in non-test internal/chaineval, in Engine.visit"},
	{step: "an unobserved engine", paths: chainevalGo,
		pattern: `Tracer|answerLog|sc\.tr\b`, example: "\tif sc.tr != nil {",
		msg: "the chain engine is observed again"},
	{step: "one forward walker", paths: []string{"internal/chaineval/chaineval.go"}, n: 1, in: "internal/chaineval/chaineval.go:follow",
		pattern: `e\.probe\(`, example: "\t\t\t\tvs = e.probe(t, n.u, sc.rels, &sc.work)",
		msg: "want exactly one e.probe( in internal/chaineval/chaineval.go, in Engine.follow"},
	{step: "one forward walker", paths: chainevalGo,
		pattern: `^func (\([^)]*\) )?(regularImage|closure)\(`, example: "func (e *Engine) closure(sc *runScratch, a symtab.Sym) []symtab.Sym {",
		msg: "the cyclic guard's private walker is back"},
	{step: "one adjacency read", paths: []string{"internal/chaineval/chaineval.go", "internal/chaineval/parallel.go", "internal/chaineval/batch.go", "internal/chaineval/view.go"},
		pattern: `\br\.(Successors|Predecessors)\(|Relation\([^)]*\)\.(Successors|Predecessors)\(`, example: "\t\treturn tally(work, r.Successors(u))",
		msg: "a chain reader probes a store relation by Successors or Predecessors again: read it through the run's adjacency view (edb.Adj); only source.go's StoreSource, the by-name Source, may"},
	{step: "one overlay", paths: []string{"internal/edb/**/*.go"}, tests: true,
		pattern: `retractLog|logBase|retractLogMax|pendingDead`, example: "\tretractLog []int32",
		msg: "the retract log is back"},
	{step: "one compiled engine", paths: allGo, skip: []string{"bench/"},
		pattern: `ReannotateAux|relIdx|QueryAllCtx|refreshFacts|ResetTerms|BoundArg\b`, example: "func (t *Transformed) ResetTerms() {",
		msg: "an engine or a plan changes after it compiles again"},
}

// TestDesignShape checks every shape against the repository's files.
// This file is left out of every search: it spells each pattern.
func TestDesignShape(t *testing.T) {
	var files []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if !d.IsDir() && p != "design_test.go" {
			files = append(files, filepath.ToSlash(p))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	texts := map[string]string{}
	read := func(f string) string {
		if text, ok := texts[f]; ok {
			return text
		}
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		texts[f] = string(raw)
		return texts[f]
	}
	for _, s := range shapes {
		t.Run(s.step, func(t *testing.T) {
			re, err := regexp.Compile(s.pattern)
			if err != nil {
				t.Fatal(err)
			}
			if !re.MatchString(s.example) {
				t.Fatalf("the pattern %q does not match its example %q", s.pattern, s.example)
			}
			var hits []string
			if s.from != nil {
				hits = reachedImports(t, s.from, re)
			} else {
				hits = s.search(t, files, read, re)
			}
			if s.n == anyNumber || len(hits) == s.n {
				return
			}
			t.Errorf("%s: %d matching lines of %q, want %d:\n%s", s.msg, len(hits), s.pattern, s.n, strings.Join(hits, "\n"))
		})
	}
}

// search returns the lines of s's files that re matches, as
// "file:line: text", failing t at once for a match outside s.in or a
// glob that selects no file.
func (s shape) search(t *testing.T, files []string, read func(string) string, re *regexp.Regexp) []string {
	inFile, inFunc, _ := strings.Cut(s.in, ":")
	syn, err := syntax.Parse(s.pattern, syntax.Perl)
	if err != nil {
		t.Fatal(err)
	}
	needles := literals(syn)
	var hits []string
	for _, g := range s.paths {
		selected := 0
		for _, f := range files {
			if !glob(strings.Split(g, "/"), strings.Split(f, "/")) ||
				!s.tests && strings.HasSuffix(f, "_test.go") ||
				slices.ContainsFunc(s.skip, func(p string) bool { return strings.HasPrefix(f, p) }) {
				continue
			}
			selected++
			text := read(f)
			if needles != nil && !slices.ContainsFunc(needles, func(l string) bool { return strings.Contains(text, l) }) {
				continue
			}
			fn := ""
			for i, line := range strings.Split(text, "\n") {
				if strings.HasPrefix(line, "func ") {
					fn = funcName.FindStringSubmatch(line)[1]
				}
				if !re.MatchString(line) {
					continue
				}
				hit := f + ":" + strconv.Itoa(i+1) + ": " + line
				if s.in != "" && (f != inFile || inFunc != "" && fn != inFunc) {
					t.Errorf("%s: a match outside %s:\n%s", s.msg, s.in, hit)
				}
				hits = append(hits, hit)
			}
		}
		if selected == 0 && s.pattern != anyLine {
			t.Errorf("%s selects no file: the rule checks nothing", g)
		}
	}
	return hits
}

// literals returns strings one of which every match of r contains, or
// nil if r names none: Go's regexp scans a line at a time, so a file is
// first searched for these with strings.Contains.
func literals(r *syntax.Regexp) []string {
	switch r.Op {
	case syntax.OpLiteral:
		if r.Flags&syntax.FoldCase == 0 {
			return []string{string(r.Rune)}
		}
	case syntax.OpCapture:
		return literals(r.Sub[0])
	case syntax.OpAlternate:
		var all []string
		for _, sub := range r.Sub {
			l := literals(sub)
			if l == nil {
				return nil
			}
			all = append(all, l...)
		}
		return all
	case syntax.OpConcat:
		// Any one part's literals do; take the part whose shortest is longest.
		var best []string
		for _, sub := range r.Sub {
			if l := literals(sub); l != nil && (best == nil || shortest(l) > shortest(best)) {
				best = l
			}
		}
		return best
	}
	return nil
}

func shortest(l []string) int {
	return len(slices.MinFunc(l, func(a, b string) int { return len(a) - len(b) }))
}

var funcName = regexp.MustCompile(`^func (?:\([^)]*\) )?(\w+)`)

// glob matches a slash-split path against a slash-split pattern whose
// "**" element spans any number of directories.
func glob(pat, name []string) bool {
	if len(pat) == 0 {
		return len(name) == 0
	}
	if pat[0] == "**" {
		for i := range len(name) + 1 {
			if glob(pat[1:], name[i:]) {
				return true
			}
		}
		return false
	}
	if len(name) == 0 {
		return false
	}
	ok, _ := path.Match(pat[0], name[0])
	return ok && glob(pat[1:], name[1:])
}

// reachedImports walks the module's import graph from the package
// directories roots, reading each package's non-test imports with
// go/parser, and returns every import path re matches with the chain of
// packages that reached it.
func reachedImports(t *testing.T, roots []string, re *regexp.Regexp) []string {
	const module = "chainlog"
	via := map[string]string{}
	queue := slices.Clone(roots)
	for _, dir := range roots {
		via[dir] = ""
	}
	var hits []string
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, e.Name()), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if re.MatchString(p) {
					hits = append(hits, fmt.Sprintf("%s imports %s%s", dir, p, chain(via, dir)))
				}
				rel, ok := strings.CutPrefix(p, module+"/")
				if p == module {
					rel, ok = ".", true
				}
				if _, seen := via[rel]; ok && !seen {
					via[rel] = dir
					queue = append(queue, rel)
				}
			}
		}
	}
	return hits
}

// chain spells how dir was reached from a root.
func chain(via map[string]string, dir string) string {
	var s string
	for d := via[dir]; d != ""; d = via[d] {
		s += ", reached from " + d
	}
	return s
}
