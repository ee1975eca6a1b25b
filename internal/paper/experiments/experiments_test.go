package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// The experiment harness is exercised end to end at small sizes; the
// large-size claims live in EXPERIMENTS.md and the root benchmarks.
var smallSizes = []int{16, 32}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, smallSizes); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"E1", "henschen-naqvi", "ours(chain)", "(a)", "(b)", "(c)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig7(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig7(&buf, smallSizes); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fit") {
		t.Fatalf("no fit rows:\n%s", buf.String())
	}
}

func TestFig8(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig8(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "boundStopped") || !strings.Contains(out, "true") {
		t.Fatalf("cyclic table incomplete:\n%s", out)
	}
}

func TestThm3AndThm4(t *testing.T) {
	var buf bytes.Buffer
	if err := Thm3(&buf, smallSizes); err != nil {
		t.Fatal(err)
	}
	if err := Thm4(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "false") {
		t.Fatalf("a bound check failed:\n%s", out)
	}
}

func TestLemma1AndFig1(t *testing.T) {
	var buf bytes.Buffer
	if err := Lemma1Example(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "q2 =") {
		t.Fatalf("worked example missing q2:\n%s", buf.String())
	}
	buf.Reset()
	if err := Fig1(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "-sg->") {
		t.Fatalf("sg automaton missing:\n%s", buf.String())
	}
}

func TestSec4Flight(t *testing.T) {
	var buf bytes.Buffer
	if err := Sec4Flight(&buf, 8, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "irrelevantFlights") {
		t.Fatalf("flight table missing:\n%s", buf.String())
	}
}

func TestAblations(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationHunt(&buf); err != nil {
		t.Fatal(err)
	}
	if err := AblationMemo(&buf, smallSizes); err != nil {
		t.Fatal(err)
	}
	if err := AblationHorner(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"huntArcs", "hnTermsTouched", "horner"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in ablation output", want)
		}
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in short mode")
	}
	var buf bytes.Buffer
	if err := All(&buf, smallSizes); err != nil {
		t.Fatalf("All: %v\n%s", err, buf.String())
	}
}
