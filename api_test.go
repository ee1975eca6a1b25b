package chainlog

import (
	"reflect"
	"testing"
)

func mustDB(t *testing.T, src string) *DB {
	t.Helper()
	db := NewDB()
	if err := db.LoadProgram(src); err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	return db
}

const sgSrc = `
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).

up(john, p1).   up(ann, p1).   up(bob, p2).
up(p1, gp).     up(p2, gp).
flat(gp, gp).   flat(p1, p1).  flat(p2, p2).
down(gp, p1).   down(gp, p2).
down(p1, john). down(p1, ann). down(p2, bob).
`

// Same generation of john: john and ann share parent p1; bob shares
// grandparent gp.
var sgJohnWant = [][]string{{"ann"}, {"bob"}, {"john"}}

func TestQuerySameGenerationAllStrategies(t *testing.T) {
	for _, strat := range Strategies() {
		t.Run(strat.String(), func(t *testing.T) {
			db := mustDB(t, sgSrc)
			ans, err := db.QueryOpts("sg(john, Y)", Options{Strategy: strat})
			if err != nil {
				t.Fatalf("query: %v", err)
			}
			if !reflect.DeepEqual(ans.Rows, sgJohnWant) {
				t.Fatalf("strategy %v: got %v want %v", strat, ans.Rows, sgJohnWant)
			}
		})
	}
}

func TestQueryInverseAndBoolean(t *testing.T) {
	db := mustDB(t, sgSrc)
	// fb query: who is in john's generation set... inverse direction.
	ans, err := db.Query("sg(X, john)")
	if err != nil {
		t.Fatalf("fb query: %v", err)
	}
	if !reflect.DeepEqual(ans.Rows, sgJohnWant) {
		// the sample data is symmetric, so the inverse answer matches
		t.Fatalf("fb: got %v want %v", ans.Rows, sgJohnWant)
	}
	// bb query routes through Section 4 (both bindings used).
	ans, err = db.Query("sg(john, bob)")
	if err != nil {
		t.Fatalf("bb query: %v", err)
	}
	if !ans.True {
		t.Fatal("sg(john, bob) should hold")
	}
	ans, err = db.Query("sg(john, gp)")
	if err != nil {
		t.Fatalf("bb query: %v", err)
	}
	if ans.True {
		t.Fatal("sg(john, gp) should not hold")
	}
}

func TestQueryAllPairs(t *testing.T) {
	db := mustDB(t, `
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(a, b). edge(b, c).
`)
	ans, err := db.Query("tc(X, Y)")
	if err != nil {
		t.Fatalf("ff query: %v", err)
	}
	want := [][]string{{"a", "b"}, {"a", "c"}, {"b", "c"}}
	if !reflect.DeepEqual(ans.Rows, want) {
		t.Fatalf("got %v want %v", ans.Rows, want)
	}
}

func TestBaseQuery(t *testing.T) {
	db := mustDB(t, `edge(a, b). edge(a, c).`)
	ans, err := db.Query("edge(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"b"}, {"c"}}
	if !reflect.DeepEqual(ans.Rows, want) {
		t.Fatalf("got %v want %v", ans.Rows, want)
	}
}

func TestFlightSection4(t *testing.T) {
	db := mustDB(t, `
cnx(S, DT, D, AT) :- flight(S, DT, D, AT).
cnx(S, DT, D, AT) :- flight(S, DT, D1, AT1), AT1 < DT1, is_deptime(DT1), cnx(D1, DT1, D, AT).

flight(hel, 900, sto, 1000).
flight(sto, 1100, par, 1300).
flight(par, 1400, nyc, 2000).
flight(sto, 930, osl, 1030).
is_deptime(900). is_deptime(1100). is_deptime(1400). is_deptime(930).
`)
	ans, err := db.Query("cnx(hel, 900, D, AT)")
	if err != nil {
		t.Fatalf("cnx query: %v", err)
	}
	want := [][]string{{"nyc", "2000"}, {"par", "1300"}, {"sto", "1000"}}
	if !reflect.DeepEqual(ans.Rows, want) {
		t.Fatalf("got %v want %v", ans.Rows, want)
	}
	// sto departure 930 is before arrival 1000: osl must NOT be reachable.
	for _, r := range ans.Rows {
		if r[0] == "osl" {
			t.Fatal("osl should not be reachable after arriving 1000")
		}
	}
	// Agreement with seminaive.
	sn, err := db.QueryOpts("cnx(hel, 900, D, AT)", Options{Strategy: Seminaive})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sn.Rows, ans.Rows) {
		t.Fatalf("seminaive disagreement: %v vs %v", sn.Rows, ans.Rows)
	}
}
