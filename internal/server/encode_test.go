package server

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"chainlog"
	"chainlog/internal/symtab"
)

// answersFromFuzz builds the symbol rows of a /v1/query reply out of fuzz
// input, with the table that names them and the QueryResponse of their
// string form. vars splits on ',' and cells on '|', so every other byte —
// control bytes, quotes, backslashes, <>&, multi-byte and invalid UTF-8 —
// lands inside a name; the cells fill rows of len(vars) names, a partial
// last row dropped. The names are a table's: every (width%4+1)-th
// distinct one, in first-seen order, is in a base built by
// NewTableFromBase, and the rest are interned above it. shape picks the
// rest: bit 0 a batch body, bit 1 stats, bit 2 the boolean result, bit 3
// nil instead of empty vars, bit 4 a base put in name order first, bit 5
// no base at all; width>>2 (mod 3) is how many results a batch has.
func answersFromFuzz(tb testing.TB, vars, cells string, width, shape uint8, n int64) (*symtab.Table, []chainlog.SymRows, QueryResponse) {
	res := chainlog.SymRows{True: shape&4 != 0}
	if vars != "" {
		res.Vars = strings.Split(vars, ",")
	} else if shape&8 == 0 {
		res.Vars = []string{}
	}
	var flat []string
	if w := len(res.Vars); w > 0 && cells != "" {
		flat = strings.Split(cells, "|")
		flat = flat[:len(flat)/w*w]
	}

	var distinct, base []string
	for _, name := range flat {
		if !slices.Contains(distinct, name) {
			distinct = append(distinct, name)
		}
	}
	for i, name := range distinct {
		if shape&32 == 0 && i%(int(width%4)+1) == 0 {
			base = append(base, name)
		}
	}
	if shape&16 != 0 {
		slices.Sort(base)
	}
	st := symtab.NewTable()
	if shape&32 == 0 {
		blob, offs := []byte{}, []uint32{0}
		for _, name := range base {
			blob = append(blob, name...)
			offs = append(offs, uint32(len(blob)))
		}
		var err error
		if st, err = symtab.NewTableFromBase(blob, offs); err != nil {
			tb.Fatal(err)
		}
	}
	for _, name := range flat {
		res.Cells = append(res.Cells, st.Intern(name))
	}
	if shape&2 != 0 {
		res.Stats = chainlog.Stats{
			Strategy:       chainlog.Strategy(n % 8),
			Iterations:     int(n),
			Nodes:          int(n >> 7),
			Expansions:     int(-n),
			FactsConsulted: n * 31,
			Lookups:        ^n,
		}
	}
	answers := []chainlog.SymRows{res}
	if shape&1 != 0 {
		// A batch: the same answer whole, without its rows, and halved.
		w := max(len(res.Vars), 1)
		half, bare := res, res
		half.Cells = res.Cells[:len(res.Cells)/w/2*w]
		bare.Cells = nil
		answers = []chainlog.SymRows{res, bare, half}[:1+int(width>>2)%3]
	}

	// The string form, as the handler used to build it from an Answer.
	var resp QueryResponse
	for _, a := range answers {
		r := QueryResult{Vars: []string{}, Rows: [][]string{}, True: a.True}
		r.Vars = append(r.Vars, a.Vars...)
		if w := len(a.Vars); w > 0 {
			for i := 0; i < len(a.Cells); i += w {
				r.Rows = append(r.Rows, st.AppendNames(nil, a.Cells[i:i+w]))
			}
		}
		if shape&2 != 0 {
			s := a.Stats
			r.Stats = &StatsJSON{Strategy: s.Strategy.String(), Iterations: s.Iterations, Nodes: s.Nodes, Expansions: s.Expansions,
				FactsConsulted: s.FactsConsulted, Lookups: s.Lookups}
		}
		resp.Results = append(resp.Results, r)
	}
	if shape&1 == 0 {
		resp.Result, resp.Results = &resp.Results[0], nil
	}
	return st, answers, resp
}

// FuzzQueryResponseJSON pins the /v1/query appender to encoding/json: for
// any answers, named through any table — a base in or out of name order,
// overlay names, or no base — the bytes are the ones json.Encoder writes
// for their string form. The seed corpus is
// testdata/fuzz/FuzzQueryResponseJSON, which go test runs.
func FuzzQueryResponseJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, vars, cells string, width, shape uint8, n int64) {
		st, answers, resp := answersFromFuzz(t, vars, cells, width, shape, n)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got := appendQueryResponse(nil, st, answers, shape&1 != 0, shape&2 != 0); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appender differs from encoding/json\n got %q\nwant %q", got, want.Bytes())
		}
	})
}
