// Command benchtables regenerates the paper's evaluation tables and
// figures (see DESIGN.md for the experiment index and EXPERIMENTS.md for
// recorded paper-vs-measured results).
//
// Usage:
//
//	benchtables                 # run everything
//	benchtables -exp table1     # one experiment: table1, fig7, fig8,
//	                            # thm3, thm4, lemma1, fig1, flight,
//	                            # hunt, memo, horner
//	benchtables -sizes 64,128,256,512
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"chainlog/internal/paper/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, table1, fig7, fig8, thm3, thm4, lemma1, fig1, flight, hunt, memo, horner)")
	sizesFlag := flag.String("sizes", "64,128,256,512", "comma-separated size sweep")
	airports := flag.Int("airports", 40, "airports in the flight experiment")
	perAirport := flag.Int("flights", 6, "flights per airport in the flight experiment")
	flag.Parse()

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(2)
	}

	w := os.Stdout
	switch *exp {
	case "all":
		err = experiments.All(w, sizes)
	case "table1":
		err = experiments.Table1(w, sizes)
	case "fig7":
		err = experiments.Fig7(w, sizes)
	case "fig8":
		err = experiments.Fig8(w)
	case "thm3":
		err = experiments.Thm3(w, sizes)
	case "thm4":
		err = experiments.Thm4(w)
	case "lemma1":
		err = experiments.Lemma1Example(w)
	case "fig1":
		err = experiments.Fig1(w)
	case "flight":
		err = experiments.Sec4Flight(w, *airports, *perAirport)
	case "hunt":
		err = experiments.AblationHunt(w)
	case "memo":
		err = experiments.AblationMemo(w, sizes)
	case "horner":
		err = experiments.AblationHorner(w)
	default:
		err = fmt.Errorf("unknown experiment %q", *exp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n)
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("need at least two sizes, got %v", out)
	}
	return out, nil
}
