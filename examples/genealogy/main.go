// Genealogy: regular (right-/left-linear) queries — ancestor and
// descendant — evaluated in a single traversal iteration (Theorem 3),
// including inverse (p(X, b)) and all-pairs (p(X, Y)) query modes, with a
// strategy comparison on a generated family tree.
//
//	go run ./examples/genealogy
package main

import (
	"fmt"
	"log"
	"time"

	"chainlog"
)

const rules = `
% ancestor is right-linear: regular, so the Lemma 1 system is a pure
% regular expression over parent and the traversal needs one iteration.
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).

% sibling-or-self: a left-linear flourish over the same data.
kin(X, Y) :- parent(X, P), parent(Y, P).
`

func main() {
	db := chainlog.NewDB()
	if err := db.LoadProgram(rules); err != nil {
		log.Fatal(err)
	}

	// A synthetic 4-generation family: person g<generation>_<i> has
	// parent g<generation-1>_<i/2>.
	const gens, width = 5, 16
	family := &chainlog.Delta{}
	for g := 1; g < gens; g++ {
		for i := 0; i < width; i++ {
			child := fmt.Sprintf("g%d_%d", g, i)
			parent := fmt.Sprintf("g%d_%d", g-1, i/2)
			family.Assert("parent", child, parent)
		}
	}
	if _, err := db.Apply(family); err != nil {
		log.Fatal(err)
	}

	fmt.Println("classification:", db.Classify())

	// Bound-first query: all ancestors of g4_7.
	ans, err := db.Query("ancestor(g4_7, Y)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nancestors of g4_7 (%d):", len(ans.Rows))
	for _, r := range ans.Rows {
		fmt.Printf(" %s", r[0])
	}
	fmt.Printf("\n(iterations=%d — regular programs finish in one)\n", ans.Stats.Iterations)

	// Inverse query: all descendants of g0_0 via ancestor(X, g0_0).
	desc, err := db.Query("ancestor(X, g0_0)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndescendants of g0_0: %d people\n", len(desc.Rows))

	// All-pairs via the Tarjan-condensation path.
	all, err := db.Query("ancestor(X, Y)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full ancestor relation: %d pairs\n", len(all.Rows))

	// kin is a join view (non-recursive): evaluated directly.
	kin, err := db.Query("kin(g4_7, Y)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kin of g4_7: %v\n", kin.Rows)

	// Strategy shoot-out on the bound ancestor query.
	fmt.Println("\nstrategy comparison for ancestor(g4_7, Y):")
	for _, s := range []chainlog.Strategy{
		chainlog.Chain, chainlog.QSQNet, chainlog.Seminaive,
	} {
		start := time.Now()
		a, err := db.QueryOpts("ancestor(g4_7, Y)", chainlog.Options{Strategy: s})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10v %d answers, %6d facts consulted, %v\n",
			s, len(a.Rows), a.Stats.FactsConsulted, time.Since(start).Round(time.Microsecond))
	}
}
