// Corporate logistics: a ternary linearly recursive query — reachability
// through a shipping network restricted to one carrier class — evaluated
// via the Section 4 transformation. The class argument is a bound
// argument that the adornment propagates through the recursion, so each
// query touches only the selected carrier's routes.
//
//	go run ./examples/corporate
package main

import (
	"fmt"
	"log"
	"math/rand"

	"chainlog"
)

const rules = `
% ships(D1, C, D2): carrier class C runs a leg from depot D1 to depot D2.
% route(X, C, Y): Y is reachable from X using only class-C legs.
route(X, C, Y) :- ships(X, C, Y).
route(X, C, Y) :- ships(X, C, Z), route(Z, C, Y).
`

func main() {
	db := chainlog.NewDB()
	if err := db.LoadProgram(rules); err != nil {
		log.Fatal(err)
	}

	// Two overlaid networks over the same depots: "air" is a sparse
	// long-haul web, "truck" a denser local one.
	rng := rand.New(rand.NewSource(11))
	const depots = 40
	name := func(i int) string { return fmt.Sprintf("d%02d", i) }
	legs := &chainlog.Delta{}
	for i := 0; i < depots; i++ {
		// Truck ring plus shortcuts.
		legs.Assert("ships", name(i), "truck", name((i+1)%depots))
		if rng.Intn(3) == 0 {
			legs.Assert("ships", name(i), "truck", name(rng.Intn(depots)))
		}
		// Sparse air hops.
		if i%5 == 0 {
			legs.Assert("ships", name(i), "air", name((i+10)%depots))
		}
	}
	if _, err := db.Apply(legs); err != nil {
		log.Fatal(err)
	}

	// Show the compiled binary-chain program for the bound-class query.
	text, err := db.Explain("route(d00, air, Y)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- compilation of route(d00, air, Y) ---")
	fmt.Println(text)

	for _, class := range []string{"air", "truck"} {
		q := fmt.Sprintf("route(d00, %s, Y)", class)
		ans, err := db.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d depots reachable (facts consulted: %d, iterations: %d)\n",
			q, len(ans.Rows), ans.Stats.FactsConsulted, ans.Stats.Iterations)
	}

	// A fully bound check routes both bindings through the adornment.
	ans, err := db.Query("route(d00, air, d30)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("route(d00, air, d30) = %v\n", ans.True)

	// Cross-check against seminaive, which computes the route relation
	// for every class at once.
	sn, err := db.QueryOpts("route(d00, air, Y)", chainlog.Options{Strategy: chainlog.Seminaive})
	if err != nil {
		log.Fatal(err)
	}
	ch, err := db.Query("route(d00, air, Y)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("seminaive agrees (%d answers) but consulted %d facts vs %d\n",
		len(sn.Rows), sn.Stats.FactsConsulted, ch.Stats.FactsConsulted)
}
