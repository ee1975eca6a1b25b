package chaineval

import (
	"testing"
	"testing/quick"

	"chainlog/internal/paper/rel"
	"chainlog/internal/symtab"
	"chainlog/internal/workload"
)

// Lemma 2(1): if the algorithm is run for exactly i iterations, the
// partial answer set accumulated equals the correct answer under the
// truncated equation p = p_i, where p_0 = ∅ and
// p_i = e0 ∪ e1·p_{i-1}·e2 for the same-generation shape. The oracle
// unrolls the recursion over materialized relations.
func TestLemma2PartialAnswers(t *testing.T) {
	f := func(seed int64) bool {
		st := symtab.NewTable()
		w := workload.RandomTree(st, 18, 0.5, seed)
		eng := sgEngine(t, w.Store, Options{})

		up := relFromStore(w.Store, "up")
		flat := relFromStore(w.Store, "flat")
		down := relFromStore(w.Store, "down")

		// Unroll p_i.
		unroll := func(i int) *rel.Rel {
			cur := rel.New() // p_0 = ∅
			for k := 0; k < i; k++ {
				cur = rel.Union(flat, rel.Compose(rel.Compose(up, cur), down))
			}
			return cur
		}

		for i := 1; i <= 5; i++ {
			res, err := eng.Query("sg", w.Query)
			if err != nil {
				return false
			}
			capped := eng
			_ = res
			// Re-run with the iteration cap.
			capped = New(eng.sys, eng.src, Options{MaxIterations: i})
			r, err := capped.Query("sg", w.Query)
			if err != nil {
				return false
			}
			want := unroll(i).Successors(w.Query)
			if len(want) != len(r.Answers) {
				t.Logf("seed %d i=%d: got %v want %v", seed, i, names(st, r.Answers), names(st, want))
				return false
			}
			for k := range want {
				if want[k] != r.Answers[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Lemma 2(2): once the original algorithm terminates after h iterations,
// running longer does not change the answer (p_i for i > h equals p_h).
func TestLemma2Stability(t *testing.T) {
	st := symtab.NewTable()
	w := workload.SampleC(st, 12)
	eng := sgEngine(t, w.Store, Options{})
	full, err := eng.Query("sg", w.Query)
	if err != nil {
		t.Fatal(err)
	}
	h := full.Iterations
	for _, extra := range []int{1, 3, 10} {
		capped := New(eng.sys, eng.src, Options{MaxIterations: h + extra})
		r, err := capped.Query("sg", w.Query)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Answers) != len(full.Answers) {
			t.Fatalf("answers changed after convergence: %d vs %d", len(r.Answers), len(full.Answers))
		}
	}
}
