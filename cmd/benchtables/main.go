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
	"io"
	"os"
	"strconv"
	"strings"

	"chainlog/internal/paper/experiments"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

// run is the command without the process around it: args are the
// command-line arguments and the tables go to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run (all, table1, fig7, fig8, thm3, thm4, lemma1, fig1, flight, hunt, memo, horner)")
	sizesFlag := fs.String("sizes", "64,128,256,512", "comma-separated size sweep")
	airports := fs.Int("airports", 40, "airports in the flight experiment")
	perAirport := fs.Int("flights", 6, "flights per airport in the flight experiment")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		return err
	}

	switch *exp {
	case "all":
		return experiments.All(w, sizes)
	case "table1":
		return experiments.Table1(w, sizes)
	case "fig7":
		return experiments.Fig7(w, sizes)
	case "fig8":
		return experiments.Fig8(w)
	case "thm3":
		return experiments.Thm3(w, sizes)
	case "thm4":
		return experiments.Thm4(w)
	case "lemma1":
		return experiments.Lemma1Example(w)
	case "fig1":
		return experiments.Fig1(w)
	case "flight":
		return experiments.Sec4Flight(w, *airports, *perAirport)
	case "hunt":
		return experiments.AblationHunt(w)
	case "memo":
		return experiments.AblationMemo(w, sizes)
	case "horner":
		return experiments.AblationHorner(w)
	}
	return fmt.Errorf("unknown experiment %q", *exp)
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
