package chainlog

import (
	"reflect"
	"strings"
	"testing"
)

const flightSrc = `
cnx(S, DT, D, AT) :- flight(S, DT, D, AT).
cnx(S, DT, D, AT) :- flight(S, DT, D1, AT1), AT1 < DT1, is_deptime(DT1), cnx(D1, DT1, D, AT).

flight(hel, 900, sto, 1000).
flight(sto, 1100, par, 1300).
flight(par, 1400, nyc, 2000).
flight(sto, 930, osl, 1030).
flight(osl, 1200, cdg, 1500).
is_deptime(900). is_deptime(1100). is_deptime(1400).
is_deptime(930). is_deptime(1200).
`

// agree evaluates the query with the chain strategy and with seminaive
// and requires identical rows.
func agree(t *testing.T, db *DB, query string) [][]string {
	t.Helper()
	chain, err := db.Query(query)
	if err != nil {
		t.Fatalf("chain %q: %v", query, err)
	}
	semi, err := db.QueryOpts(query, Options{Strategy: Seminaive})
	if err != nil {
		t.Fatalf("seminaive %q: %v", query, err)
	}
	if !reflect.DeepEqual(chain.Rows, semi.Rows) || chain.True != semi.True {
		t.Fatalf("%q: chain %v/%v vs seminaive %v/%v", query, chain.Rows, chain.True, semi.Rows, semi.True)
	}
	return chain.Rows
}

// Every binding pattern of the 4-ary flight query routes through the
// Section 4 transformation and must agree with bottom-up evaluation.
func TestFlightBindingPatterns(t *testing.T) {
	db := mustDB(t, flightSrc)
	queries := []string{
		"cnx(hel, 900, D, AT)",   // bbff — the paper's pattern
		"cnx(hel, DT, D, AT)",    // bfff
		"cnx(S, DT, nyc, AT)",    // ffbf — binding in the middle
		"cnx(S, DT, D, AT)",      // ffff — no bindings at all
		"cnx(hel, 900, nyc, AT)", // bbbf
		"cnx(S, 900, D, AT)",     // fbff
	}
	for _, q := range queries {
		rows := agree(t, db, q)
		_ = rows
	}
	// Fully bound.
	ans := agree(t, db, "cnx(hel, 900, nyc, 2000)")
	_ = ans
	full, err := db.Query("cnx(hel, 900, nyc, 2000)")
	if err != nil {
		t.Fatal(err)
	}
	if !full.True {
		t.Fatal("hel→sto→par→nyc connection not found")
	}
	neg, err := db.Query("cnx(hel, 900, osl, 1030)")
	if err != nil {
		t.Fatal(err)
	}
	if neg.True {
		t.Fatal("infeasible osl transfer accepted")
	}
}

// Ternary route program under various bindings.
func TestRouteBindingPatterns(t *testing.T) {
	db := mustDB(t, `
route(X, C, Y) :- ships(X, C, Y).
route(X, C, Y) :- ships(X, C, Z), route(Z, C, Y).

ships(d0, air, d1). ships(d1, air, d2). ships(d2, air, d0).
ships(d0, truck, d3). ships(d3, truck, d4).
ships(d4, truck, d0). ships(d2, truck, d3).
`)
	for _, q := range []string{
		"route(d0, air, Y)",
		"route(d0, truck, Y)",
		"route(X, air, d2)",
		"route(d0, C, d4)",
		"route(X, C, Y)",
	} {
		agree(t, db, q)
	}
}

// Repeated variables in a Section 4 query: route(X, C, X) asks for
// round trips.
func TestRepeatedVariableQuery(t *testing.T) {
	db := mustDB(t, `
route(X, C, Y) :- ships(X, C, Y).
route(X, C, Y) :- ships(X, C, Z), route(Z, C, Y).

ships(d0, air, d1). ships(d1, air, d0).
ships(d2, truck, d3).
`)
	ans := agree(t, db, "route(X, air, X)")
	want := [][]string{{"d0"}, {"d1"}}
	if !reflect.DeepEqual(ans, want) {
		t.Fatalf("round trips = %v, want %v", ans, want)
	}
}

// Strict mode surfaces the chain-condition rejection instead of falling
// back to the QSQ net.
func TestStrictModeSurfacesChainError(t *testing.T) {
	db := mustDB(t, flightSrc)
	if _, err := db.QueryOpts("cnx(hel, DT, D, AT)", Options{Strict: true}); err == nil {
		t.Fatal("strict mode accepted a non-chain binding pattern")
	}
	// Non-strict (default) answers correctly via the fallback.
	agree(t, db, "cnx(hel, DT, D, AT)")

	// A nonlinear slice has no chain route either: strict says so,
	// pinned or not; the pin alone degrades.
	db = mustDB(t, sgBesideTwoSidedSrc)
	for _, opts := range []Options{{Strict: true}, {Strategy: Chain, Strict: true}} {
		if _, err := db.QueryOpts("p(n1, Y)", opts); err == nil || !strings.Contains(err.Error(), "not linear") {
			t.Fatalf("strict %+v on a nonlinear slice: %v", opts, err)
		}
	}
	if _, err := db.QueryOpts("p(n1, Y)", Options{Strategy: Chain}); err != nil {
		t.Fatalf("pinned chain on a nonlinear slice: %v", err)
	}
}
