package chaineval_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"chainlog/internal/chaineval"
	"chainlog/internal/edb"
	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

// sgDB is a store for an sg case built fact by fact.
type sgDB struct {
	st    *symtab.Table
	store *edb.Store
}

func newSGDB() *sgDB {
	st := symtab.NewTable()
	return &sgDB{st: st, store: edb.NewStore(st)}
}

func (d *sgDB) insert(pred, u, v string) { d.store.Insert(pred, d.st.Intern(u), d.st.Intern(v)) }

// closureOf is the set of terms reachable from seeds by zero or more rel
// steps: the brute-force D1 and D2 of the cyclic guard.
func closureOf(rel *edb.Relation, seeds []symtab.Sym) map[symtab.Sym]bool {
	seen := map[symtab.Sym]bool{}
	work := slices.Clone(seeds)
	for len(work) > 0 {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[u] {
			continue
		}
		seen[u] = true
		if rel != nil {
			work = append(work, rel.Successors(u)...)
		}
	}
	return seen
}

// mn is m·n for sg(a, Y) computed from the store: m = |up*(a)|, n = |down*(flat(up*(a)))|.
func mn(store *edb.Store, a symtab.Sym) int {
	d1 := closureOf(store.Relation("up"), []symtab.Sym{a})
	var images []symtab.Sym
	for u := range d1 {
		images = append(images, store.Relation("flat").Successors(u)...)
	}
	d2 := closureOf(store.Relation("down"), images)
	return len(d1) * max(1, len(d2))
}

// TestCyclicBoundOnlyOnCycles pins when the cyclic guard pays for its
// bound. On data acyclic under up, a guarded run does exactly an
// unguarded run's work: the same answers, iterations, nodes, lookups and
// tuples. On cyclic data it stops at iteration m·n, as it did when it
// computed the bound before the first iteration — Fig. 8's pairs, whose
// answerCompleteAt the benchtables golden records, and a cycle behind an
// acyclic prefix. A context cancelled while the bound is being computed
// stops the run with its cause.
func TestCyclicBoundOnlyOnCycles(t *testing.T) {
	for _, s := range []struct {
		name string
		gen  func(*symtab.Table, int) *workload.SG
	}{{"fig7a", workload.SampleA}, {"fig7b", workload.SampleB}, {"fig7c", workload.SampleC}} {
		for _, n := range []int{16, 64, 128} {
			st := symtab.NewTable()
			w := s.gen(st, n)
			checkUnguardedWork(t, fmt.Sprintf("%s/n=%d", s.name, n), st, w.Store, w.Query)
		}
	}
	for seed := int64(0); seed <= 5; seed++ {
		st := symtab.NewTable()
		w := workload.RandomTree(st, 300, 0.3, seed)
		checkUnguardedWork(t, fmt.Sprintf("tree/seed=%d", seed), st, w.Store, w.Query)
	}
	{
		// up reaches c from a in one step and in two, and d in two and
		// three: the continuation terms of different iterations overlap.
		d := newSGDB()
		for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}, {"c", "d"}, {"d", "e"}} {
			d.insert("up", e[0], e[1])
			d.insert("down", e[1], e[0])
		}
		for _, p := range []string{"b", "c", "d", "e"} {
			d.insert("flat", p, p)
		}
		checkUnguardedWork(t, "dag", d.st, d.store, d.st.Intern("a"))
	}

	for _, par := range []int{0, 2} {
		// Fig. 8: the answerCompleteAt and answers of the golden's E3.
		for _, c := range []struct{ m, n, complete, answers int }{
			{2, 3, 5, 3}, {3, 4, 10, 4}, {3, 5, 13, 5}, {4, 5, 17, 5}, {5, 7, 31, 7}, {2, 4, 3, 2}, {4, 6, 9, 3},
		} {
			st := symtab.NewTable()
			w := workload.Cyclic(st, c.m, c.n)
			eng := chaineval.New(transformed(t, workload.SGProgram, st), chaineval.StoreSource{Store: w.Store}, chaineval.Options{Parallelism: par})
			res, err := eng.Query("sg", w.Query)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations != c.m*c.n || !res.BoundStopped || !res.Converged ||
				res.AnswerCompleteAt != c.complete || len(res.Answers) != c.answers {
				t.Errorf("par=%d m=%d n=%d: iterations %d, boundStopped %v, converged %v, answerCompleteAt %d, %d answers; want %d, true, true, %d, %d",
					par, c.m, c.n, res.Iterations, res.BoundStopped, res.Converged, res.AnswerCompleteAt, len(res.Answers), c.m*c.n, c.complete, c.answers)
			}
		}

		// A cycle behind an acyclic prefix: up runs p0 → p1 → p2 → c0 and
		// round c0 → c1 → c2 → c0, flat leaves the prefix and the cycle,
		// and down goes round a cycle of four and down a tail.
		d := newSGDB()
		for _, e := range [][2]string{{"p0", "p1"}, {"p1", "p2"}, {"p2", "c0"}, {"c0", "c1"}, {"c1", "c2"}, {"c2", "c0"}} {
			d.insert("up", e[0], e[1])
		}
		d.insert("flat", "p1", "t2")
		d.insert("flat", "c1", "d0")
		for j := range 4 {
			d.insert("down", fmt.Sprintf("d%d", (j+1)%4), fmt.Sprintf("d%d", j))
		}
		d.insert("down", "t2", "t1")
		d.insert("down", "t1", "t0")
		a := d.st.Intern("p0")
		bound := mn(d.store, a)
		if bound != 6*7 {
			t.Fatalf("m·n = %d, want 42", bound)
		}
		sys := transformed(t, workload.SGProgram, d.st)
		src := chaineval.StoreSource{Store: d.store}
		got, err := chaineval.New(sys, src, chaineval.Options{Parallelism: par}).Query("sg", a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := chaineval.New(sys, src, chaineval.Options{Parallelism: par, DisableCyclicGuard: true, MaxIterations: bound}).Query("sg", a)
		if err != nil {
			t.Fatal(err)
		}
		if got.Iterations != bound || !got.BoundStopped || !got.Converged || want.BoundStopped || want.Converged ||
			!slices.Equal(got.Answers, want.Answers) || got.Nodes != want.Nodes || got.AnswerCompleteAt != want.AnswerCompleteAt {
			t.Errorf("par=%d prefix+cycle: guarded %+v, unguarded at m·n=%d %+v", par, got, bound, want)
		}
	}

	t.Run("random", func(t *testing.T) {
		// Ten terms with random up, flat and down arcs, most of them
		// cyclic under up from t0: every run the bound stops does m·n
		// iterations, as brute force counts them, and ends on the answers
		// and nodes of an unguarded run cut off there.
		stopped := 0
		for seed := range int64(200) {
			rng := rand.New(rand.NewSource(seed))
			d := newSGDB()
			for _, p := range []string{"up", "flat", "down"} {
				for range 14 {
					d.insert(p, fmt.Sprintf("t%d", rng.Intn(10)), fmt.Sprintf("t%d", rng.Intn(10)))
				}
			}
			a := d.st.Intern("t0")
			sys := transformed(t, workload.SGProgram, d.st)
			src := chaineval.StoreSource{Store: d.store}
			for _, par := range []int{0, 2} {
				got, err := chaineval.New(sys, src, chaineval.Options{Parallelism: par}).Query("sg", a)
				if err != nil {
					t.Fatal(err)
				}
				if !got.BoundStopped {
					continue
				}
				stopped++
				bound := mn(d.store, a)
				want, err := chaineval.New(sys, src, chaineval.Options{Parallelism: par, DisableCyclicGuard: true, MaxIterations: bound}).Query("sg", a)
				if err != nil {
					t.Fatal(err)
				}
				if got.Iterations != bound || !got.Converged || !slices.Equal(got.Answers, want.Answers) || got.Nodes != want.Nodes {
					t.Errorf("seed %d par=%d: guarded %+v, unguarded at m·n=%d %+v", seed, par, got, bound, want)
				}
			}
		}
		if stopped < 200 {
			t.Errorf("the bound stopped %d of 400 runs, too few to tell", stopped)
		}
		t.Logf("the bound stopped %d of 400 runs", stopped)
	})

	t.Run("cancel-in-closure", func(t *testing.T) {
		// up is a loop at a, so the first iteration ends on a continuation
		// point whose term was seen — the bound is computed there — and
		// down, which the traversal probes from the second iteration on,
		// fans out from flat's image wide enough for the bound's traversal
		// to poll.
		d := newSGDB()
		d.insert("up", "a", "a")
		d.insert("flat", "a", "b")
		for j := range 5000 {
			d.insert("down", "b", fmt.Sprintf("c%d", j))
		}
		ctx, cancel := context.WithCancelCause(context.Background())
		defer cancel(nil)
		cause := errors.New("cancelled inside the bound")
		var downProbes int
		src := chaineval.FuncSource{Succ: func(p string, u symtab.Sym) []symtab.Sym {
			if p == "down" {
				downProbes++
				cancel(cause)
			}
			return d.store.Relation(p).Successors(u)
		}}
		var iters iterationRecorder
		eng := chaineval.New(transformed(t, workload.SGProgram, d.st), src, chaineval.Options{Tracer: &iters})
		_, _, err := eng.QueryInto(ctx, "sg", d.st.Intern("a"), nil, 0)
		if !errors.Is(err, cause) {
			t.Fatalf("err = %v, want the cause %v", err, cause)
		}
		// Each term the traversal of M(e0·e2*) reaches is one down probe,
		// and the traversal polls the run's canceler every 4,096 pops, so
		// the bound stops within that many probes of the cancel and the
		// second iteration never begins.
		if iters != 1 || downProbes > 4096 {
			t.Errorf("stopped after %d iterations and %d down probes, want 1 and at most 4,096: the bound's traversal polls", iters, downProbes)
		}
	})
}

// checkUnguardedWork runs sg(a, Y) with and without the cyclic guard and
// wants the same answers and the same work, sequentially and on two
// workers.
func checkUnguardedWork(t *testing.T, name string, st *symtab.Table, store *edb.Store, a symtab.Sym) {
	t.Helper()
	sys := transformed(t, workload.SGProgram, st)
	src := chaineval.StoreSource{Store: store}
	for _, par := range []int{0, 2} {
		got, err := chaineval.New(sys, src, chaineval.Options{Parallelism: par}).Query("sg", a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := chaineval.New(sys, src, chaineval.Options{Parallelism: par, DisableCyclicGuard: true}).Query("sg", a)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Answers, want.Answers) || got.Iterations != want.Iterations || got.Nodes != want.Nodes ||
			got.Lookups != want.Lookups || got.Retrieved != want.Retrieved || got.BoundStopped || !got.Converged {
			t.Errorf("%s par=%d: guarded %+v, unguarded %+v", name, par, got, want)
		}
	}
}

// iterationRecorder is a Tracer keeping the last iteration begun.
type iterationRecorder int

func (r *iterationRecorder) Iteration(i int)         { *r = iterationRecorder(i) }
func (r *iterationRecorder) Node(int, symtab.Sym)    {}
func (r *iterationRecorder) Expand(string, int, int) {}
func (r *iterationRecorder) Answer(symtab.Sym)       {}
