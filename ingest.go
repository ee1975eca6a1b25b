package chainlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"chainlog/internal/symtab"
)

// IngestStats reports what a bulk ingestion consumed and produced.
type IngestStats struct {
	// Lines is the number of edge records read from the input (blank
	// lines and comments excluded).
	Lines int
	// Edges is the number of distinct edges stored — duplicates in the
	// input collapse, as with repeated Assert.
	Edges int
}

// IngestCSV bulk-loads a binary relation from CSV-ish text: one
// "source,target" pair per line, no quoting, blank lines and lines
// starting with '#' skipped. The relation is built directly in columnar
// CSR form with a counting sort — no per-fact hashing or overlay churn —
// so loading 10⁷–10⁸ edges streams at I/O speed and the result is
// immediately query-ready. The relation must not already exist in the
// DB; everything else about the DB (rules, other relations, prepared
// plans) is untouched, and the fact epoch moves once. An ingest that
// fails — a malformed line, an existing relation — changes nothing, the
// symbol table included.
func (db *DB) IngestCSV(r io.Reader, relation string) (IngestStats, error) {
	return db.ingestEdges(relation, func(emit func(src, dst []byte) error) error {
		br := bufio.NewReaderSize(r, 1<<20)
		lineNo := 0
		for {
			line, err := br.ReadSlice('\n')
			if err == bufio.ErrBufferFull {
				return fmt.Errorf("chainlog: ingest: line %d exceeds 1MiB", lineNo+1)
			}
			if len(line) == 0 && err != nil {
				if err == io.EOF {
					return nil
				}
				return err
			}
			lineNo++
			line = bytes.TrimRight(line, "\r\n")
			if len(line) == 0 || line[0] == '#' {
				if err == io.EOF {
					return nil
				}
				continue
			}
			src, dst, ok := bytes.Cut(line, []byte{','})
			if !ok || bytes.IndexByte(dst, ',') >= 0 {
				return fmt.Errorf("chainlog: ingest: line %d: want exactly two comma-separated fields", lineNo)
			}
			if len(src) == 0 || len(dst) == 0 {
				return fmt.Errorf("chainlog: ingest: line %d: empty field", lineNo)
			}
			if e := emit(src, dst); e != nil {
				return e
			}
			if err == io.EOF {
				return nil
			}
		}
	})
}

// IngestJSONL bulk-loads a binary relation from JSON Lines: one
// {"src": "...", "dst": "..."} object per line. Same semantics as
// IngestCSV, for pipelines that already speak JSONL.
func (db *DB) IngestJSONL(r io.Reader, relation string) (IngestStats, error) {
	return db.ingestEdges(relation, func(emit func(src, dst []byte) error) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var rec struct {
				Src string `json:"src"`
				Dst string `json:"dst"`
			}
			if err := json.Unmarshal(line, &rec); err != nil {
				return fmt.Errorf("chainlog: ingest: line %d: %w", lineNo, err)
			}
			if rec.Src == "" || rec.Dst == "" {
				return fmt.Errorf("chainlog: ingest: line %d: src and dst are required", lineNo)
			}
			if err := emit([]byte(rec.Src), []byte(rec.Dst)); err != nil {
				return err
			}
		}
		return sc.Err()
	})
}

// ingestEdges drives a record source, accumulating the edge list over
// local ids, then installs it as a CSR-form relation in one shot. Names
// are interned only inside the write, once the read succeeded and the
// relation is known to be new, so a failed ingest leaves the symbol table
// as it found it.
func (db *DB) ingestEdges(relation string, read func(emit func(src, dst []byte) error) error) (IngestStats, error) {
	// Local ids go through a byte-keyed cache: the map lookup on a []byte
	// key does not allocate, so repeated node names (the common case —
	// every edge names two already-seen nodes) cost one hash and no
	// string conversion. names[id] is the name, in first-seen order.
	cache := make(map[string]symtab.Sym, 1<<16)
	var names []string
	local := func(b []byte) symtab.Sym {
		if s, ok := cache[string(b)]; ok {
			return s
		}
		s := symtab.Sym(len(names))
		names = append(names, string(b))
		cache[names[s]] = s
		return s
	}
	var pairs []symtab.Sym
	lines := 0
	err := read(func(src, dst []byte) error {
		pairs = append(pairs, local(src), local(dst))
		lines++
		return nil
	})
	if err != nil {
		return IngestStats{}, err
	}
	var stats IngestStats
	err = db.write(func() (change, error) {
		if db.store.Relation(relation) != nil {
			return change{}, fmt.Errorf("chainlog: ingest: relation %s already exists", relation)
		}
		syms := make([]symtab.Sym, len(names))
		for i, name := range names {
			syms[i] = db.st.Intern(name)
		}
		for i, s := range pairs {
			pairs[i] = syms[s]
		}
		rel, err := db.store.BuildBinary(relation, pairs)
		if err != nil {
			return change{}, err
		}
		stats = IngestStats{Lines: lines, Edges: rel.Len()}
		return change{bulk: true}, nil
	})
	return stats, err
}
