package server

import (
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The /v1/query reply is the one body whose size follows the data: a wide
// answer is tens of kilobytes of row strings, and json.Encoder walks them
// by reflection and leaves net/http to frame the result in chunks. The
// appender below writes the same bytes into a pooled buffer, so the reply
// goes out with a Content-Length in one Write. FuzzQueryResponseJSON pins
// it to encoding/json byte for byte; every other body keeps writeJSON.

// respPool recycles reply buffers. A buffer that grew past maxPooledResp
// is dropped instead of returned, so one huge answer does not stay
// resident in the pool.
var respPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledResp = 1 << 20

// writeQueryResponse sends a 200 with resp as its JSON body.
func writeQueryResponse(w http.ResponseWriter, resp *QueryResponse) {
	bp := respPool.Get().(*[]byte)
	buf := appendQueryResponse((*bp)[:0], resp)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf) // the status line is already out; nothing to recover
	if cap(buf) <= maxPooledResp {
		*bp = buf
		respPool.Put(bp)
	}
}

// appendQueryResponse appends what json.NewEncoder(w).Encode(resp) writes,
// trailing newline included.
func appendQueryResponse(dst []byte, resp *QueryResponse) []byte {
	dst = append(dst, '{')
	if resp.Result != nil {
		dst = append(dst, `"result":`...)
		dst = appendQueryResult(dst, resp.Result)
	}
	if len(resp.Results) > 0 {
		if resp.Result != nil {
			dst = append(dst, ',')
		}
		dst = append(dst, `"results":[`...)
		for i := range resp.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendQueryResult(dst, &resp.Results[i])
		}
		dst = append(dst, ']')
	}
	return append(dst, '}', '\n')
}

func appendQueryResult(dst []byte, r *QueryResult) []byte {
	dst = append(dst, `{"vars":`...)
	dst = appendStrings(dst, r.Vars)
	dst = append(dst, `,"rows":`...)
	if r.Rows == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, row := range r.Rows {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendStrings(dst, row)
		}
		dst = append(dst, ']')
	}
	if r.True {
		dst = append(dst, `,"true":true`...)
	}
	if s := r.Stats; s != nil {
		dst = append(dst, `,"stats":{"strategy":`...)
		dst = appendString(dst, s.Strategy)
		dst = append(dst, `,"iterations":`...)
		dst = strconv.AppendInt(dst, int64(s.Iterations), 10)
		dst = append(dst, `,"nodes":`...)
		dst = strconv.AppendInt(dst, int64(s.Nodes), 10)
		dst = append(dst, `,"expansions":`...)
		dst = strconv.AppendInt(dst, int64(s.Expansions), 10)
		dst = append(dst, `,"facts_consulted":`...)
		dst = strconv.AppendInt(dst, s.FactsConsulted, 10)
		dst = append(dst, `,"lookups":`...)
		dst = strconv.AppendInt(dst, s.Lookups, 10)
		dst = append(dst, `,"converged":`...)
		dst = strconv.AppendBool(dst, s.Converged)
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// appendStrings appends a JSON array of strings; a nil slice is null, as
// in encoding/json.
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// plain marks the ASCII bytes a JSON string carries unescaped under
// encoding/json's default HTML-safe escaping: everything from the space
// up except the quote, the backslash and <, > and &.
var plain = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string literal with encoding/json's
// escaping: short escapes for the quote, the backslash and \b \f \n \r
// \t, \u00XX for other control bytes and for <, > and &, \u2028 and
// \u2029 for the two separators, \ufffd for each byte of invalid UTF-8.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0 // s[start:i] is pending, unescaped
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if plain[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
