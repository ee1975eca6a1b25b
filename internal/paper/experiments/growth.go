package experiments

// The numeric helpers that turn raw work counts into the paper's
// complexity statements: log-log growth-exponent fits over a parameter
// sweep, and fixed-width table rendering.

import (
	"fmt"
	"math"
	"strings"
)

// GrowthExponent fits work ≈ c·n^k over the sweep by least squares in
// log-log space and returns k. A linear algorithm fits k≈1, a quadratic
// one k≈2. It returns NaN when fewer than two valid points exist.
func GrowthExponent(ns []int, work []float64) float64 {
	var xs, ys []float64
	for i := range ns {
		if ns[i] > 0 && work[i] > 0 {
			xs = append(xs, math.Log(float64(ns[i])))
			ys = append(ys, math.Log(work[i]))
		}
	}
	if len(xs) < 2 {
		return math.NaN()
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}

// Class maps a fitted exponent to the complexity classes the paper's
// table reports: "n" for ~linear, "n^2" for ~quadratic, and the raw
// exponent otherwise.
func Class(k float64) string {
	switch {
	case math.IsNaN(k):
		return "?"
	case k < 1.3:
		return "n"
	case k < 1.75:
		return fmt.Sprintf("n^%.1f", k)
	case k < 2.35:
		return "n^2"
	default:
		return fmt.Sprintf("n^%.1f", k)
	}
}

// Table renders rows with a header in fixed-width columns.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row; values are stringified with %v.
func (t *Table) Add(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", x)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
