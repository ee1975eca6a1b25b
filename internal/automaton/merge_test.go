package automaton

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"chainlog/internal/expr"
	"chainlog/internal/paper/rel"
	"chainlog/internal/symtab"
)

// checkMerge holds M(e) in both merged forms — occurrences reached by
// the same transitions sharing a state, with Final a sink and with Final
// the state of the class that holds its terms — against the automaton
// with one state per occurrence, on a random graph over e's predicates
// drawn from seed (dense enough to be cyclic): the same language up to
// length 4, the same answers from every term, forward and over the
// reversed expression, and never more nodes or probes.
func checkMerge(t *testing.T, e expr.Expr, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	universe := make([]symtab.Sym, 5)
	for i := range universe {
		universe[i] = symtab.Sym(i)
	}
	env := rel.Env{}
	for _, p := range expr.Preds(e) {
		r := rel.New()
		for _, u := range universe {
			for _, v := range universe {
				if rng.Float64() < 0.3 {
					r.Add(u, v)
				}
			}
		}
		env[p] = r
	}
	for _, e := range []expr.Expr{e, expr.Reverse(e, nil)} {
		plain := compile(e, perOccurrence)
		for _, f := range []form{merged, finalMerged} {
			m := compile(e, f)
			if got, want := accepted(m), accepted(plain); got != want {
				t.Fatalf("M(%s), form %d, accepts %s, unmerged %s\n%s", e, f, got, want, m)
			}
			for _, u := range universe {
				got, want := traverse(m, env, u), traverse(plain, env, u)
				slices.Sort(got.answers)
				slices.Sort(want.answers)
				if !slices.Equal(got.answers, want.answers) {
					t.Fatalf("M(%s), form %d, from %d: answers %v, unmerged %v", e, f, u, got.answers, want.answers)
				}
				if got.nodes > want.nodes || got.probes > want.probes {
					t.Fatalf("M(%s), form %d, from %d: %d nodes and %d probes, unmerged %d and %d\n%s", e, f, u, got.nodes, got.probes, want.nodes, want.probes, m)
				}
			}
		}
	}
}

// accepted renders the words of length at most 4 the automaton accepts.
func accepted(m *NFA) string {
	ws := m.Words(4)
	slices.Sort(ws)
	return strings.Join(ws, "|")
}

// TestMergeKeepsLanguageAndWork runs checkMerge over random expressions,
// and over the shapes that spell mergeable occurrences on purpose —
// Lemma 1's x*.x, the closure x.x* and a union of words with a common
// prefix — which a random expression seldom does.
func TestMergeKeepsLanguageAndWork(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	merges, finals := 0, 0
	for k := 0; k < 500; k++ {
		x, y, z := randomExpr(rng, 3), randomExpr(rng, 3), randomExpr(rng, 3)
		for _, e := range []expr.Expr{
			randomExpr(rng, 5),
			expr.NewConcat(expr.NewStar(x), x),
			expr.NewConcat(x, expr.NewStar(x)),
			expr.NewUnion(expr.NewConcat(x, y), expr.NewConcat(x, z)),
		} {
			checkMerge(t, e, int64(k))
			plain, m, r := compile(e, perOccurrence), compile(e, merged), compile(e, finalMerged)
			if m.NumTrans() < plain.NumTrans() {
				merges++
			}
			if r.NumStates() < m.NumStates() {
				finals++
			}
		}
	}
	if merges < 300 || finals < 600 {
		t.Fatalf("only %d of 2,000 expressions merged occurrences and %d merged Final (368 and 814 when written)", merges, finals)
	}
}

// FuzzCompile is checkMerge over any expression the parser accepts.
func FuzzCompile(f *testing.F) {
	for _, e := range []string{
		"e*.e",
		"e.e*",
		"e*",
		"(a.b)*.a.b",
		"e*.e U f",
		"flat U up.(flat U up.(flat U up.flat.down).down).down",
		"flat U up.flat.down U up.up.flat.down.down U up.up.up.flat.down.down.down",
		"(edge.f* U g)*.f.(g U (edge.g)*)*.(f~ U id)",
		"(b3.b4* U b2.p).b1",
	} {
		f.Add(e, int64(1))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		e, err := expr.Parse(src)
		if err != nil || expr.Size(e) > 24 {
			return
		}
		checkMerge(t, e, seed)
	})
}
