package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// responseFromFuzz builds a QueryResponse out of fuzz input. vars splits
// on ',' and cells on '|', so every other byte — control bytes, quotes,
// backslashes, <>&, multi-byte and invalid UTF-8 — lands inside a string.
// shape picks the structure: bit 0 a batch body, bit 1 stats, bit 2 the
// boolean result, bit 3 nil instead of empty vars, bit 4 nil instead of
// empty rows, bit 5 a nil row, bit 6 both "result" and "results"; width
// (mod 4) is the row width, 0 giving zero-column rows.
func responseFromFuzz(vars, cells string, width, shape uint8, n int64) QueryResponse {
	res := QueryResult{Vars: []string{}, Rows: [][]string{}, True: shape&4 != 0}
	if vars != "" {
		res.Vars = strings.Split(vars, ",")
	} else if shape&8 != 0 {
		res.Vars = nil
	}
	if cells != "" {
		flat := strings.Split(cells, "|")
		w := int(width % 4)
		for len(flat) > 0 {
			k := min(w, len(flat))
			res.Rows = append(res.Rows, flat[:k:k])
			flat = flat[max(k, 1):]
		}
		if shape&32 != 0 {
			res.Rows = append(res.Rows, nil)
		}
	} else if shape&16 != 0 {
		res.Rows = nil
	}
	if shape&2 != 0 {
		res.Stats = &StatsJSON{
			Strategy:       vars,
			Iterations:     int(n),
			Nodes:          int(n >> 7),
			Expansions:     int(-n),
			FactsConsulted: n * 31,
			Lookups:        ^n,
			Converged:      n&1 == 0,
		}
	}
	var resp QueryResponse
	if shape&1 != 0 {
		// A batch: the same result whole, without its rows, and halved.
		half := res
		half.Rows = res.Rows[:len(res.Rows)/2]
		bare := res
		bare.Rows, bare.Stats = [][]string{}, nil
		resp.Results = []QueryResult{res, bare, half}[:1+int(width>>2)%3]
	}
	if shape&1 == 0 || shape&64 != 0 {
		resp.Result = &res
	}
	return resp
}

// FuzzQueryResponseJSON pins the /v1/query appender to encoding/json: for
// any response, the bytes are the ones json.Encoder writes. The seed
// corpus is testdata/fuzz/FuzzQueryResponseJSON, which go test runs.
func FuzzQueryResponseJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, vars, cells string, width, shape uint8, n int64) {
		resp := responseFromFuzz(vars, cells, width, shape, n)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got := appendQueryResponse(nil, &resp); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appender differs from encoding/json\n got %q\nwant %q", got, want.Bytes())
		}
	})
}
