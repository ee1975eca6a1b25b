package chainlog_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"chainlog"
	"chainlog/internal/edb"
	"chainlog/internal/server"
	"chainlog/internal/symtab"
)

// The order contract — Answer.Rows, batch answers, view state and served
// bodies are sorted by name — is paid for in two ways: a snapshot assigns
// symbol ids in name order, so answers sorted by id need no reordering,
// and sortRows repairs whatever is out of place. The first must never be
// relied on alone: constants interned after the snapshot was opened get
// the next free ids wherever their names sort, and a file written before
// ids were name-ordered numbers its base in fact order.

const orderRules = `
	sg(X, Y) :- flat(X, Y).
	sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
`

// orderFacts are the base facts, in an order that is not name order.
var orderFacts = [][3]string{
	{"down", "p2", "t3"}, {"down", "p1", "t11"}, {"up", "t1", "p1"}, {"down", "g", "p2"},
	{"down", "p2", "t100"}, {"flat", "g", "g"}, {"down", "p1", "t1"}, {"up", "p1", "g"},
	{"down", "p2", "t2"}, {"down", "g", "p1"}, {"down", "p1", "t10"}, {"up", "t2", "p2"}, {"up", "p2", "g"},
}

// orderOverlay is asserted after the base is in place: new constants that
// sort between (t10a), before (a) and after (zz) the base names.
var orderOverlay = [][3]string{
	{"down", "p2", "t10a"}, {"down", "p1", "a"}, {"down", "p2", "zz"}, {"up", "zz", "p2"}, {"up", "a", "p1"},
}

func factsText(facts [][3]string) string {
	var b strings.Builder
	for _, f := range facts {
		b.WriteString(f[0] + "(" + f[1] + ", " + f[2] + ").\n")
	}
	return b.String()
}

// snapshotBase opens a snapshot written from the base facts.
func snapshotBase(t *testing.T) *chainlog.DB {
	src := chainlog.NewDB()
	if err := src.LoadProgram(factsText(orderFacts)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "facts.snap")
	if err := src.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	db, err := chainlog.OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	st := db.SymTab()
	for s := symtab.Sym(2); int(s) < st.BaseLen(); s++ {
		if st.Name(s-1) >= st.Name(s) {
			t.Fatalf("snapshot base is not name-ordered: Sym %d is %q, Sym %d is %q", s-1, st.Name(s-1), s, st.Name(s))
		}
	}
	return db
}

// oldFileBase lays the base out the way a file written before ids were
// name-ordered does: ids in order of first appearance (such a file's sort
// index is a real permutation, which the reader no longer consults).
func oldFileBase(t *testing.T) *chainlog.DB {
	var names []string
	for _, f := range orderFacts {
		for _, n := range f[1:] {
			if !slices.Contains(names, n) {
				names = append(names, n)
			}
		}
	}
	if slices.IsSorted(names) {
		t.Fatal("the hand-built ids are in name order; the case needs them out of it")
	}
	var blob []byte
	offs := []uint32{0}
	for _, n := range names {
		blob = append(blob, n...)
		offs = append(offs, uint32(len(blob)))
	}
	st, err := symtab.NewTableFromBase(blob, offs)
	if err != nil {
		t.Fatal(err)
	}
	store := edb.NewStore(st)
	for _, f := range orderFacts {
		a, _ := st.Lookup(f[1])
		b, _ := st.Lookup(f[2])
		store.Insert(f[0], a, b)
	}
	return chainlog.NewDBOver(st, store)
}

func sortedByName(rows [][]string) bool {
	return slices.IsSortedFunc(rows, func(a, b []string) int { return slices.Compare(a, b) })
}

// serve posts one /v1/query body to a server over db and returns the reply.
func serve(t *testing.T, db *chainlog.DB, body string) string {
	t.Helper()
	srv, err := server.New(server.Config{DB: db, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

func TestAnswerOrderOverSnapshotBases(t *testing.T) {
	reference := chainlog.NewDB()
	if err := reference.LoadProgram(factsText(orderFacts)); err != nil {
		t.Fatal(err)
	}
	bases := []struct {
		name string
		db   *chainlog.DB
	}{
		{"name-ordered snapshot", snapshotBase(t)},
		{"old file", oldFileBase(t)},
	}
	for _, db := range []*chainlog.DB{reference, bases[0].db, bases[1].db} {
		if err := db.LoadProgram(orderRules); err != nil {
			t.Fatal(err)
		}
		for _, f := range orderOverlay {
			db.Assert(f[0], f[1], f[2])
		}
	}
	queries := []struct {
		template string
		args     []string
		rows     int // on the reference, to know the case is not vacuous
	}{
		{"sg(?, Y)", []string{"t1"}, 9},
		{"sg(?, Y)", []string{"zz"}, 9},
		{"sg(X, Y)", nil, 0},
		{"sg(X, ?)", []string{"t10a"}, 4},
		{"sg(?, ?)", []string{"a", "zz"}, 0},
		{"down(?, Y)", []string{"p2"}, 5},
		{"down(X, Y)", nil, 11},
	}
	for _, base := range bases {
		for _, q := range queries {
			name := base.name + "/" + q.template + strings.Join(q.args, ",")
			var want [][]string
			for _, strategy := range chainlog.Strategies() {
				opts := chainlog.Options{Strategy: strategy}
				ref, refErr := reference.Prepare(q.template, opts)
				var refAns *chainlog.Answer
				if refErr == nil {
					refAns, refErr = ref.Run(q.args...)
				}
				p, err := base.db.Prepare(q.template, opts)
				var ans *chainlog.Answer
				if err == nil {
					ans, err = p.Run(q.args...)
				}
				if (err == nil) != (refErr == nil) {
					t.Errorf("%s/%v: error %v, on the reference %v", name, strategy, err, refErr)
				}
				if err != nil || refErr != nil {
					continue // the strategy does not accept the program
				}
				if !sortedByName(ans.Rows) {
					t.Errorf("%s/%v: rows not sorted by name: %v", name, strategy, ans.Rows)
				}
				if !reflect.DeepEqual(ans.Rows, refAns.Rows) || ans.True != refAns.True {
					t.Errorf("%s/%v: rows %v (%v), on the reference %v (%v)", name, strategy, ans.Rows, ans.True, refAns.Rows, refAns.True)
				}
				if strategy == chainlog.Auto {
					want = refAns.Rows
					if q.rows > 0 && len(want) != q.rows {
						t.Fatalf("%s: reference answers %d rows, the case was built for %d", name, len(want), q.rows)
					}
				}
			}

			req, _ := json.Marshal(server.QueryRequest{Template: q.template, Args: q.args})
			body, refBody := serve(t, base.db, string(req)), serve(t, reference, string(req))
			if body != refBody {
				t.Errorf("%s: /v1/query body %s, on the reference %s", name, body, refBody)
			}
			var decoded server.QueryResponse
			if err := json.Unmarshal([]byte(body), &decoded); err != nil || !sortedByName(decoded.Result.Rows) {
				t.Errorf("%s: /v1/query rows not sorted by name (decode error %v): %s", name, err, body)
			}

			if len(q.args) != 1 {
				continue
			}
			p, err := base.db.Prepare(q.template, chainlog.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := reference.Prepare(q.template, chainlog.Options{})
			if err != nil {
				t.Fatal(err)
			}
			batch := [][]string{q.args, {"a"}, {"t10"}, q.args, {"zz"}}
			answers, err := p.RunBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			refAnswers, err := ref.RunBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			for i := range answers {
				if !sortedByName(answers[i].Rows) || !reflect.DeepEqual(answers[i].Rows, refAnswers[i].Rows) {
					t.Errorf("%s: RunBatch[%d] rows %v, on the reference %v", name, i, answers[i].Rows, refAnswers[i].Rows)
				}
			}
			if !reflect.DeepEqual(answers[0].Rows, want) {
				t.Errorf("%s: RunBatch[0] rows %v, Run returned %v", name, answers[0].Rows, want)
			}

			view, err := p.Materialize(q.args...)
			if err != nil {
				t.Fatal(err)
			}
			rows, _, _ := view.State()
			if !sortedByName(rows) || !reflect.DeepEqual(rows, want) {
				t.Errorf("%s: view state %v, Run returned %v", name, rows, want)
			}
			view.Close()
		}
	}

	// A view keeps the order while overlay constants arrive under it.
	for _, base := range bases {
		p, err := base.db.Prepare("sg(?, Y)", chainlog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		view, err := p.Materialize("t1")
		if err != nil {
			t.Fatal(err)
		}
		base.db.Apply(new(chainlog.Delta).Assert("down", "p1", "t1a").Assert("down", "p2", "b").Retract("down", "p2", "t100"))
		rows, _, _ := view.State()
		ans, err := p.Run("t1")
		if err != nil {
			t.Fatal(err)
		}
		if !sortedByName(rows) || !reflect.DeepEqual(rows, ans.Rows) || !slices.ContainsFunc(rows, func(r []string) bool { return r[0] == "t1a" }) {
			t.Errorf("%s: view state after the delta %v, Run returns %v", base.name, rows, ans.Rows)
		}
		view.Close()
	}
}
