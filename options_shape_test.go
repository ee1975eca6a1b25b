package chainlog_test

import (
	"reflect"
	"slices"
	"testing"

	"chainlog"
	"chainlog/internal/optimizer"
	"chainlog/internal/server"
)

// Options holds what a plan is and what a run may spend, nothing else:
// the strategy keys the plan cache with the Section 4 ablation switch,
// and the node cap rides with the run. Frontier sharding is the
// optimizer's call, so no layer offers a parallelism knob.
func TestOptionsArePlanShape(t *testing.T) {
	fields := func(v any, exportedOnly bool) []string {
		var out []string
		typ := reflect.TypeOf(v)
		for i := range typ.NumField() {
			if f := typ.Field(i); f.IsExported() || !exportedOnly {
				out = append(out, f.Name)
			}
		}
		return out
	}
	if got := fields(chainlog.Options{}, true); !slices.Equal(got, []string{"Strategy", "MaxNodes"}) {
		t.Errorf("Options exports %v, want [Strategy MaxNodes]", got)
	}
	if got := fields(chainlog.OptionsKey{}, false); !slices.Equal(got, []string{"strategy", "forceSection4"}) {
		t.Errorf("optionsKey is %v, want [strategy forceSection4]", got)
	}
	for _, v := range []any{server.Config{}, optimizer.Input{}} {
		if slices.Contains(fields(v, false), "Parallelism") {
			t.Errorf("%T has a Parallelism field", v)
		}
	}
}
