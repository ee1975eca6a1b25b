// Command chainlog evaluates Datalog queries from the command line.
//
// Usage:
//
//	chainlog -program prog.dl [-facts facts.dl] -query 'sg(john, Y)' \
//	         [-strategy NAME] [-stats] [-explain]
//
// NAME is any of chainlog.Strategies(); chainlog -h lists them.
//
// The program file holds rules and (optionally) facts in the syntax
//
//	sg(X, Y) :- flat(X, Y).
//	sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
//	up(john, mary).
//
// With -explain the tool prints the Section 2 classification, the Lemma 1
// equation system and — for queries routed through the Section 4
// transformation — the generated binary-chain program, instead of
// evaluating the query.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"chainlog"
)

func main() {
	var err error
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "ingest":
			err = runIngest(os.Args[2:])
		case "gen":
			err = runGen(os.Args[2:])
		default:
			err = run()
		}
	} else {
		err = run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "chainlog:", err)
		os.Exit(1)
	}
}

// strategyHelp builds the -strategy usage from the engine's own list, so
// the two cannot drift apart.
func strategyHelp() string {
	var names []string
	for _, s := range chainlog.Strategies() {
		names = append(names, s.String())
	}
	return "evaluation strategy: " + strings.Join(names, ", ") + " (auto is the cost-based optimizer)"
}

func run() error {
	programPath := flag.String("program", "", "path to the Datalog program (rules and facts)")
	factsPath := flag.String("facts", "", "optional path to an additional facts file")
	queryText := flag.String("query", "", "query literal, e.g. 'sg(john, Y)'")
	strategyName := flag.String("strategy", "auto", strategyHelp())
	stats := flag.Bool("stats", false, "print evaluation statistics")
	explain := flag.Bool("explain", false, "print classification and compiled form instead of evaluating")
	interactive := flag.Bool("interactive", false, "read queries from stdin, one per line")
	flag.Parse()

	if *programPath == "" {
		return fmt.Errorf("-program is required")
	}
	// A binary -facts file becomes the DB via the zero-copy mmap path;
	// rules load on top. Text facts keep the original parse path.
	db, _, err := chainlog.OpenFiles(*programPath, *factsPath)
	if err != nil {
		return err
	}
	defer db.Close()

	if *explain {
		return printExplanation(db, *queryText)
	}
	strategy, err := chainlog.ParseStrategy(*strategyName)
	if err != nil {
		return err
	}
	opts := chainlog.Options{Strategy: strategy}

	if *interactive {
		return repl(db, opts, *stats)
	}
	if *queryText == "" {
		return fmt.Errorf("-query is required")
	}
	return evalAndPrint(db, *queryText, opts, *stats)
}

func evalAndPrint(db *chainlog.DB, queryText string, opts chainlog.Options, stats bool) error {
	ans, err := db.QueryOpts(queryText, opts)
	if err != nil {
		return err
	}
	if len(ans.Vars) == 0 {
		fmt.Println(ans.True)
	} else {
		fmt.Println(strings.Join(ans.Vars, "\t"))
		for _, row := range ans.Rows {
			fmt.Println(strings.Join(row, "\t"))
		}
	}
	if stats {
		s := ans.Stats
		pc := db.PlanCacheStats()
		fmt.Fprintf(os.Stderr, "strategy=%v iterations=%d nodes=%d expansions=%d facts=%d lookups=%d firings=%d plans=%d hit=%d miss=%d\n",
			s.Strategy, s.Iterations, s.Nodes, s.Expansions, s.FactsConsulted, s.Lookups, s.Firings,
			pc.Size, pc.Hits, pc.Misses)
	}
	return nil
}

// repl reads queries (or facts/rules terminated by '.') from stdin until
// EOF. Lines starting with '?' or containing no ':-' and ending in '?'
// are treated as queries; lines ending in '.' are asserted.
//
// Queries run through the DB's plan cache, so re-asking a query shape
// with different constants (sg(john, Y)? then sg(ann, Y)?) reuses the
// compiled plan instead of recompiling it; assertions bump the DB epoch
// and plans transparently recompile on next use. Run with -stats to
// watch the plans/hit/miss counters move.
func repl(db *chainlog.DB, opts chainlog.Options, stats bool) error {
	sc := bufio.NewScanner(os.Stdin)
	fmt.Fprintln(os.Stderr, "chainlog: enter queries like 'sg(john, Y)?' or assertions like 'up(a, b).'; ctrl-D to exit")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		switch {
		case strings.HasSuffix(line, "?"):
			if err := evalAndPrint(db, strings.TrimSuffix(line, "?"), opts, stats); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		case strings.HasSuffix(line, "."):
			if err := db.LoadProgram(line); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		default:
			if err := evalAndPrint(db, line, opts, stats); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		}
	}
	return sc.Err()
}

func printExplanation(db *chainlog.DB, queryText string) error {
	c := db.Classify()
	fmt.Printf("recursive:            %v\n", c.Recursive)
	fmt.Printf("linear:               %v\n", c.Linear)
	fmt.Printf("binary-chain:         %v\n", c.BinaryChain)
	fmt.Printf("regular:              %v\n", c.Regular)
	fmt.Printf("single-derived-body:  %v\n", c.SingleDerivedBody)
	fmt.Println()
	text, err := db.Explain(queryText)
	if err != nil {
		return err
	}
	fmt.Print(text)
	return nil
}
