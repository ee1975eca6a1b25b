package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestGrowthExponentLinear(t *testing.T) {
	ns := []int{64, 128, 256, 512}
	work := []float64{64 * 3, 128 * 3, 256 * 3, 512 * 3}
	k := GrowthExponent(ns, work)
	if math.Abs(k-1) > 0.01 {
		t.Fatalf("k = %f, want ~1", k)
	}
	if Class(k) != "n" {
		t.Fatalf("Class = %s", Class(k))
	}
}

func TestGrowthExponentQuadratic(t *testing.T) {
	ns := []int{64, 128, 256}
	work := make([]float64, len(ns))
	for i, n := range ns {
		work[i] = 0.5 * float64(n) * float64(n)
	}
	k := GrowthExponent(ns, work)
	if math.Abs(k-2) > 0.01 {
		t.Fatalf("k = %f, want ~2", k)
	}
	if Class(k) != "n^2" {
		t.Fatalf("Class = %s", Class(k))
	}
}

func TestGrowthExponentDegenerate(t *testing.T) {
	if !math.IsNaN(GrowthExponent([]int{1}, []float64{1})) {
		t.Fatal("single point should be NaN")
	}
	if !math.IsNaN(GrowthExponent(nil, nil)) {
		t.Fatal("empty should be NaN")
	}
	if Class(math.NaN()) != "?" {
		t.Fatal("NaN class")
	}
	// Same n twice: zero denominator.
	if !math.IsNaN(GrowthExponent([]int{4, 4}, []float64{2, 2})) {
		t.Fatal("degenerate x range should be NaN")
	}
}

func TestClassBoundaries(t *testing.T) {
	if Class(1.5) == "n" || Class(1.5) == "n^2" {
		t.Fatalf("Class(1.5) = %s", Class(1.5))
	}
	if got := Class(2.8); !strings.HasPrefix(got, "n^2.8") {
		t.Fatalf("Class(2.8) = %s", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Header: []string{"sample", "n", "work"}}
	tb.Add("a", 64, 3.14159)
	tb.Add("bbbb", 128, 2)
	s := tb.String()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d\n%s", len(lines), s)
	}
	if !strings.Contains(lines[2], "3.14") {
		t.Fatalf("float formatting: %s", lines[2])
	}
	if !strings.Contains(lines[0], "sample") || !strings.Contains(lines[1], "---") {
		t.Fatalf("header/separator missing:\n%s", s)
	}
}
