package automaton

import (
	"fmt"
	"testing"

	"chainlog/internal/expr"
)

// BenchmarkCompile measures the construction on expressions of
// growing size (the Horner-form sg_i expressions of ablation A3).
func BenchmarkCompile(b *testing.B) {
	horner := func(i int) expr.Expr {
		e := expr.Expr(expr.Pred{Name: "flat"})
		for k := 1; k < i; k++ {
			e = expr.NewUnion(expr.Pred{Name: "flat"},
				expr.NewConcat(expr.Pred{Name: "up"}, e, expr.Pred{Name: "down"}))
		}
		return e
	}
	for _, i := range []int{8, 32, 128} {
		e := horner(i)
		b.Run(fmt.Sprintf("sg_%d", i), func(b *testing.B) {
			for k := 0; k < b.N; k++ {
				Compile(e)
			}
		})
	}
}

// BenchmarkExpand measures the EM(p,i) expansion primitive: splicing a
// sub-automaton copy into a growing host.
func BenchmarkExpand(b *testing.B) {
	sub := Compile(expr.MustParse("flat U up.sg.down"))
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		host := Compile(expr.MustParse("flat U up.sg.down"))
		q := 2 // the state the one sg transition leaves
		for i := 0; i < 50; i++ {
			// The copy's sg transition is the one edge of its first state.
			q = host.Splice(q, 0, sub)
		}
	}
}
