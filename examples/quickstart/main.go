// Quickstart: the paper's same-generation query, prepared once and run
// for many bound constants — the paper's "fixed automaton hierarchy
// driven by the query constant" surfaced as an API — then cross-checked
// against the general strategies (QSQ net, seminaive, magic sets).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sync"

	"chainlog"
)

const program = `
% sg(X, Y): X and Y are cousins at the same generation.
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).

% A small family: up is child->parent, down is parent->child, and flat
% links every person to itself.
up(john, carol).  up(ann, carol).   up(bob, david).
up(carol, eve).   up(david, eve).
flat(eve, eve).   flat(carol, carol). flat(david, david).
down(eve, carol). down(eve, david).
down(carol, john). down(carol, ann). down(david, bob).
`

func main() {
	db := chainlog.NewDB()
	if err := db.LoadProgram(program); err != nil {
		log.Fatal(err)
	}

	// How the engine sees the program.
	c := db.Classify()
	fmt.Printf("program classes: recursive=%v linear=%v binary-chain=%v regular=%v\n\n",
		c.Recursive, c.Linear, c.BinaryChain, c.Regular)

	// Prepare compiles the query once: program slicing, classification,
	// the Lemma 1 equation build and automaton construction all happen
	// here. '?' marks the bound argument supplied per run.
	sg, err := db.Prepare("sg(?, Y)", chainlog.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Run only executes the demand-driven traversal — bind many.
	for _, who := range []string{"john", "ann", "bob"} {
		ans, err := sg.Run(who)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sg(%s, Y): same-generation cousins:\n", who)
		for _, row := range ans.Rows {
			fmt.Printf("  %s\n", row[0])
		}
		fmt.Printf("  iterations=%d graph-nodes=%d facts-consulted=%d\n",
			ans.Stats.Iterations, ans.Stats.Nodes, ans.Stats.FactsConsulted)
	}

	// A Prepared is safe for concurrent use: goroutines share the plan,
	// each running it with its own constant.
	var wg sync.WaitGroup
	results := make([]int, 3)
	for i, who := range []string{"john", "ann", "bob"} {
		wg.Add(1)
		go func(i int, who string) {
			defer wg.Done()
			ans, err := sg.Run(who)
			if err != nil {
				log.Fatal(err)
			}
			results[i] = len(ans.Rows)
		}(i, who)
	}
	wg.Wait()
	fmt.Printf("\nconcurrent runs: answer counts %v\n\n", results)

	// One-shot queries work too, and hit the same plan cache: the second
	// query below reuses the plan the first one compiled.
	if _, err := db.Query("sg(carol, Y)"); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Query("sg(david, Y)"); err != nil {
		log.Fatal(err)
	}
	pc := db.PlanCacheStats()
	fmt.Printf("plan cache: %d plans, %d hits, %d misses\n\n", pc.Size, pc.Hits, pc.Misses)

	// The general strategies agree with the chain traversal.
	for _, s := range []chainlog.Strategy{
		chainlog.Chain, chainlog.QSQNet, chainlog.Seminaive, chainlog.Magic,
	} {
		a, err := db.QueryOpts("sg(john, Y)", chainlog.Options{Strategy: s})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16v -> %d answers, %d facts consulted\n", s, len(a.Rows), a.Stats.FactsConsulted)
	}

	// Boolean templates bind both arguments and route through the
	// Section 4 transformation, using both bindings.
	isCousin, err := db.Prepare("sg(?, ?)", chainlog.Options{})
	if err != nil {
		log.Fatal(err)
	}
	both, err := isCousin.Run("john", "bob")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsg(john, bob) = %v (cousins via eve)\n", both.True)
}
