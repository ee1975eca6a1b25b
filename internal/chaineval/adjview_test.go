package chaineval_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"chainlog"
	"chainlog/internal/chaineval"
	"chainlog/internal/equations"
	"chainlog/internal/ivm"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
)

// pendingRules are the programs the test runs: tc is regular, so a
// batch of it shares one graph and a View keeps it; sg is not, and on
// the test's cyclic up its guard computes the m·n bound.
const pendingRules = `tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
`

// pendingDB is a database whose binary relations the chain engines probe,
// with the engines over its store, forward and inverse.
type pendingDB struct {
	db       *chainlog.DB
	sys      *equations.System
	fwd, rev *chaineval.Engine
}

func newPendingDB(t *testing.T, db *chainlog.DB) *pendingDB {
	t.Helper()
	sys, err := equations.Transform(parser.MustParse(pendingRules, db.SymTab()).Program)
	if err != nil {
		t.Fatal(err)
	}
	src := chaineval.StoreSource{Store: db.Store()}
	return &pendingDB{db: db, sys: sys, fwd: chaineval.New(sys, src, chaineval.Options{}), rev: chaineval.New(sys.Reverse(), src, chaineval.Options{})}
}

// pendingFacts is the fact set of the test, relation by relation, as
// (source, target) name pairs.
type pendingFacts map[string]map[[2]string]bool

// text is the facts as a program, each relation in sorted order.
func (f pendingFacts) text(rels ...string) string {
	var b strings.Builder
	for _, rel := range rels {
		for _, p := range f.sorted(rel) {
			fmt.Fprintf(&b, "%s(%s, %s).\n", rel, p[0], p[1])
		}
	}
	return b.String()
}

// csv is one relation's facts as IngestCSV reads them.
func (f pendingFacts) csv(rel string) string {
	var b strings.Builder
	for _, p := range f.sorted(rel) {
		fmt.Fprintf(&b, "%s,%s\n", p[0], p[1])
	}
	return b.String()
}

func (f pendingFacts) sorted(rel string) [][2]string {
	var ps [][2]string
	for p := range f[rel] {
		ps = append(ps, p)
	}
	slices.SortFunc(ps, func(a, b [2]string) int { return strings.Compare(a[0]+","+a[1], b[0]+","+b[1]) })
	return ps
}

// pendingRels are the relations, sg's first: a load interns their
// terms first, so that their few facts still pay for a CSR.
var pendingRels = []string{"up", "down", "flat", "e"}

// TestAdjViewsAgainstPendingWrites runs every reader that probes through
// the adjacency views — a run on one worker and on two (every level of a
// few nodes sharded), a batch, the cyclic guard's traversals and a View —
// between writes to relations a load, an ingestion and a reopened
// snapshot built as CSR, so that each probe meets up to adjTailMax
// writes its CSR notes and the rebuild past them. Each answer, and each
// run's nodes and probes, must be those of a database loaded fresh with
// the same facts, on bf and fb templates alike.
func TestAdjViewsAgainstPendingWrites(t *testing.T) {
	chaineval.LowerShardThreshold(t, 1)
	rng := rand.New(rand.NewSource(1))
	// e spans 120 terms, so that tc's levels shard; sg's relations span
	// 12, so that the bound the guard computes on its cycles stays small.
	span := map[string]int{"up": 12, "down": 12, "flat": 12, "e": 120}
	pick := func(rel string) [2]string {
		prefix := "s"
		if rel == "e" {
			prefix = "t"
		}
		return [2]string{fmt.Sprintf("%s%d", prefix, rng.Intn(span[rel])), fmt.Sprintf("%s%d", prefix, rng.Intn(span[rel]))}
	}
	facts := pendingFacts{}
	for _, rel := range pendingRels {
		facts[rel] = map[[2]string]bool{}
		for range 2 * span[rel] {
			facts[rel][pick(rel)] = true
		}
	}
	// The writes retract no fact from t0 or s0, so that a fresh load
	// knows every term the test starts from.
	facts["e"][[2]string{"t0", "t1"}], facts["up"][[2]string{"s0", "s1"}] = true, true
	anchored := func(p [2]string) bool { return p[0] == "t0" || p[0] == "s0" }
	builds := []struct {
		name string
		open func(t *testing.T) *chainlog.DB
	}{
		{"LoadProgram", func(t *testing.T) *chainlog.DB {
			db := chainlog.NewDB()
			if err := db.LoadProgram(pendingRules + facts.text(pendingRels...)); err != nil {
				t.Fatal(err)
			}
			return db
		}},
		{"IngestCSV", func(t *testing.T) *chainlog.DB {
			db := chainlog.NewDB()
			for _, rel := range pendingRels {
				if _, err := db.IngestCSV(strings.NewReader(facts.csv(rel)), rel); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.LoadProgram(pendingRules); err != nil {
				t.Fatal(err)
			}
			return db
		}},
		{"snapshot", func(t *testing.T) *chainlog.DB {
			src := chainlog.NewDB()
			if err := src.LoadProgram(facts.text(pendingRels...)); err != nil {
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
			if err := db.LoadProgram(pendingRules); err != nil {
				t.Fatal(err)
			}
			return db
		}},
	}
	for _, build := range builds {
		t.Run(build.name, func(t *testing.T) {
			live := facts.clone()
			p := newPendingDB(t, build.open(t))
			for _, rel := range pendingRels {
				if !p.db.Store().Relation(rel).Frozen() {
					t.Fatalf("%s is not built as CSR", rel)
				}
			}
			st := p.db.SymTab()
			views := map[string]*chaineval.View{}
			for dir, sys := range map[string]*equations.System{"bf": p.sys, "fb": p.sys.Reverse()} {
				v, err := chaineval.NewView(sys, p.db.Store(), "tc", mustLookup(t, st, "t0"))
				if err != nil {
					t.Fatal(err)
				}
				views[dir] = v
			}
			bounded := 0
			for round := range 60 {
				before := live.clone()
				d := &chainlog.Delta{}
				for range 1 + rng.Intn(5) {
					rel := "e"
					if rng.Intn(10) >= 7 {
						rel = pendingRels[rng.Intn(3)]
					}
					pair := pick(rel)
					if anchored(pair) {
						continue
					}
					if live[rel][pair] || rng.Intn(3) == 0 {
						d.Retract(rel, pair[0], pair[1])
						delete(live[rel], pair)
					} else {
						d.Assert(rel, pair[0], pair[1])
						live[rel][pair] = true
					}
				}
				if _, err := p.db.Apply(d); err != nil {
					t.Fatal(err)
				}
				ins, del := before.diff(live, st), live.diff(before, st)
				for _, v := range views {
					if _, _, err := v.ApplyBase(ins, del); err != nil {
						t.Fatal(err)
					}
				}

				fresh := chainlog.NewDB()
				if err := fresh.LoadProgram(pendingRules + live.text(pendingRels...)); err != nil {
					t.Fatal(err)
				}
				want := newPendingDB(t, fresh)
				at := fmt.Sprintf("round %d", round)
				from := func(rel string) string {
					ps := live.sorted(rel)
					return ps[rng.Intn(len(ps))][0]
				}
				bounded += comparePending(t, at, p, want, map[string][]string{
					"tc": {"t0", from("e"), from("e")},
					"sg": {"s0", from("up"), from("flat")},
				})
				for dir, v := range views {
					eng := want.fwd
					if dir == "fb" {
						eng = want.rev
					}
					wantAns, wantRes, err := eng.QueryInto(nil, "tc", mustLookup(t, fresh.SymTab(), "t0"), nil, 0, 1)
					if err != nil {
						t.Fatal(err)
					}
					var got []symtab.Sym
					for _, tu := range v.Tuples() {
						got = append(got, tu[1])
					}
					if g, w := names(st, got), names(fresh.SymTab(), wantAns); !slices.Equal(g, w) || v.Stats().Facts != wantRes.Nodes {
						t.Fatalf("%s: the %s View holds %d nodes and answers %v; a fresh run %d nodes and %v", at, dir, v.Stats().Facts, g, wantRes.Nodes, w)
					}
				}
			}
			if bounded == 0 {
				t.Fatal("no sg run computed the cyclic guard's bound")
			}
		})
	}
}

// comparePending runs each predicate from each of its terms, bf and fb,
// on one worker and on two, and as one batch, on the live database and
// the fresh one, and fails t where the answers, the nodes or the probes
// differ. It returns how many live runs the cyclic guard stopped.
func comparePending(t *testing.T, at string, live, fresh *pendingDB, from map[string][]string) (bounded int) {
	t.Helper()
	for _, pred := range []string{"tc", "sg"} {
		terms := from[pred]
		for dir, engs := range map[string][2]*chaineval.Engine{"bf": {live.fwd, fresh.fwd}, "fb": {live.rev, fresh.rev}} {
			var liveSyms, freshSyms []symtab.Sym
			for _, term := range terms {
				a, b := mustLookup(t, live.db.SymTab(), term), mustLookup(t, fresh.db.SymTab(), term)
				liveSyms, freshSyms = append(liveSyms, a), append(freshSyms, b)
				want, wantRes, err := engs[1].QueryInto(nil, pred, b, nil, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2} {
					got, res, err := engs[0].QueryInto(nil, pred, a, nil, 0, workers)
					if err != nil {
						t.Fatal(err)
					}
					if res.BoundStopped {
						bounded++
					}
					g, w := names(live.db.SymTab(), got), names(fresh.db.SymTab(), want)
					if !slices.Equal(g, w) || res.Nodes != wantRes.Nodes || res.Lookups != wantRes.Lookups || res.Retrieved != wantRes.Retrieved {
						t.Fatalf("%s: %s(%s) %s on %d workers: nodes/lookups/retrieved %d/%d/%d answers %v; fresh %d/%d/%d %v",
							at, pred, term, dir, workers, res.Nodes, res.Lookups, res.Retrieved, g, wantRes.Nodes, wantRes.Lookups, wantRes.Retrieved, w)
					}
				}
			}
			got, res, err := engs[0].QueryBatchCtx(nil, pred, liveSyms, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			want, wantRes, err := engs[1].QueryBatchCtx(nil, pred, freshSyms, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if g, w := names(live.db.SymTab(), got[i]), names(fresh.db.SymTab(), want[i]); !slices.Equal(g, w) {
					t.Fatalf("%s: batch %s(%s) %s answers %v, fresh %v", at, pred, terms[i], dir, g, w)
				}
			}
			if res.Nodes != wantRes.Nodes || res.Lookups != wantRes.Lookups || res.Retrieved != wantRes.Retrieved {
				t.Fatalf("%s: batch %s %s nodes/lookups/retrieved %d/%d/%d, fresh %d/%d/%d", at, pred, dir, res.Nodes, res.Lookups, res.Retrieved, wantRes.Nodes, wantRes.Lookups, wantRes.Retrieved)
			}
		}
	}
	return bounded
}

func (f pendingFacts) clone() pendingFacts {
	c := pendingFacts{}
	for rel, ps := range f {
		c[rel] = map[[2]string]bool{}
		for p := range ps {
			c[rel][p] = true
		}
	}
	return c
}

// diff returns the facts of g that f lacks, named through st.
func (f pendingFacts) diff(g pendingFacts, st *symtab.Table) []ivm.Fact {
	var out []ivm.Fact
	for _, rel := range pendingRels {
		for _, p := range g.sorted(rel) {
			if !f[rel][p] {
				out = append(out, ivm.Fact{Pred: rel, Args: []symtab.Sym{st.Intern(p[0]), st.Intern(p[1])}})
			}
		}
	}
	return out
}

// names returns the names of syms, sorted.
func names(st *symtab.Table, syms []symtab.Sym) []string {
	out := make([]string, 0, len(syms))
	for _, s := range syms {
		out = append(out, st.Name(s))
	}
	slices.Sort(out)
	return out
}

func mustLookup(t *testing.T, st *symtab.Table, name string) symtab.Sym {
	t.Helper()
	s, ok := st.Lookup(name)
	if !ok {
		t.Fatalf("unknown symbol %s", name)
	}
	return s
}
