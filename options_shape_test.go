package chainlog_test

import (
	"reflect"
	"slices"
	"testing"

	"chainlog"
	"chainlog/internal/chaineval"
	"chainlog/internal/optimizer"
	"chainlog/internal/server"
)

// Options holds what a plan is and what a run may spend, nothing else:
// the strategy keys the plan cache with the Section 4 ablation switch,
// and the node cap rides with the run. Frontier sharding is the
// optimizer's call, read by each run, so no layer offers a parallelism
// knob: a chain run is handed its worker count like its cap, and
// chaineval.Options exports only its node cap: the iteration cap and the
// cyclic guard switch are its own tests'.
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
	if got := fields(chaineval.Options{}, true); !slices.Equal(got, []string{"MaxNodes"}) {
		t.Errorf("chaineval.Options exports %v, want [MaxNodes]", got)
	}
	for _, v := range []any{server.Config{}, optimizer.Input{}} {
		if slices.Contains(fields(v, false), "Parallelism") {
			t.Errorf("%T has a Parallelism field", v)
		}
	}
	// The optimizer is handed what it prices: the template's shape and
	// each relation's tuple and key counts, no histogram or max degree.
	if got := fields(optimizer.Input{}, false); !slices.Equal(got, []string{"Adornment", "ChainAvailable", "DirectChain", "SharedAllFree", "QSQAvailable", "Recursive", "Rels", "Domain", "MaxProcs", "Observed"}) {
		t.Errorf("optimizer.Input is %v", got)
	}
	if got := fields(optimizer.Rel{}, false); !slices.Equal(got, []string{"Name", "Arity", "Tuples", "OutKeys", "InKeys", "Distinct"}) {
		t.Errorf("optimizer.Rel is %v, want [Name Arity Tuples OutKeys InKeys Distinct]", got)
	}
}
