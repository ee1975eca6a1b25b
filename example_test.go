package chainlog_test

import (
	"fmt"
	"log"

	"chainlog"
)

// The paper's same-generation query, evaluated with the default
// graph-traversal strategy.
func ExampleDB_Query() {
	db := chainlog.NewDB()
	err := db.LoadProgram(`
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).

		up(john, carol). up(ann, carol). flat(carol, carol).
		down(carol, john). down(carol, ann).
	`)
	if err != nil {
		log.Fatal(err)
	}
	ans, err := db.Query("sg(john, Y)")
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range ans.Rows {
		fmt.Println(row[0])
	}
	// Output:
	// ann
	// john
}

// Compile once, bind many: a parameterized query is prepared into a
// fixed plan and run for several bound constants.
func ExampleDB_Prepare() {
	db := chainlog.NewDB()
	err := db.LoadProgram(`
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).

		up(john, carol). up(ann, carol). flat(carol, carol).
		down(carol, john). down(carol, ann).
	`)
	if err != nil {
		log.Fatal(err)
	}
	sg, err := db.Prepare("sg(?, Y)", chainlog.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, who := range []string{"john", "ann"} {
		ans, err := sg.Run(who)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(who, "->", ans.Rows)
	}
	// Output:
	// john -> [[ann] [john]]
	// ann -> [[ann] [john]]
}

// Selecting a comparison strategy per query.
func ExampleDB_QueryOpts() {
	db := chainlog.NewDB()
	err := db.LoadProgram(`
		tc(X, Y) :- edge(X, Y).
		tc(X, Z) :- edge(X, Y), tc(Y, Z).
		edge(a, b). edge(b, c).
	`)
	if err != nil {
		log.Fatal(err)
	}
	ans, err := db.QueryOpts("tc(a, Y)", chainlog.Options{Strategy: chainlog.QSQNet})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ans.Rows)
	// Output:
	// [[b] [c]]
}

// Fully bound queries report truth, routing both bindings through the
// Section 4 transformation.
func ExampleDB_Query_boolean() {
	db := chainlog.NewDB()
	err := db.LoadProgram(`
		tc(X, Y) :- edge(X, Y).
		tc(X, Z) :- edge(X, Y), tc(Y, Z).
		edge(a, b). edge(b, c).
	`)
	if err != nil {
		log.Fatal(err)
	}
	yes, _ := db.Query("tc(a, c)")
	no, _ := db.Query("tc(c, a)")
	fmt.Println(yes.True, no.True)
	// Output:
	// true false
}

// Classifying a program per Section 2 of the paper.
func ExampleDB_Classify() {
	db := chainlog.NewDB()
	err := db.LoadProgram(`
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
	`)
	if err != nil {
		log.Fatal(err)
	}
	c := db.Classify()
	fmt.Printf("recursive=%v linear=%v binaryChain=%v regular=%v\n",
		c.Recursive, c.Linear, c.BinaryChain, c.Regular)
	// Output:
	// recursive=true linear=true binaryChain=true regular=false
}
