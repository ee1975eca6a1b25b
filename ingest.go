package chainlog

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
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
// starting with '#' skipped. Each endpoint costs one hash probe of a
// byte arena of the distinct names, which are then put in name order and
// interned once; the relation is built directly in columnar CSR form
// with a counting sort, with no per-fact insert or overlay churn, and is
// immediately query-ready. The relation must not already exist in the
// DB; everything else about the DB (rules, other relations, prepared
// plans) is untouched, and the fact epoch moves once. An ingest that
// fails — a malformed line, an existing relation — changes nothing, the
// symbol table included.
func (db *DB) IngestCSV(r io.Reader, relation string) (IngestStats, error) {
	return db.ingestEdges(r, relation, func(line []byte) (src, dst []byte, err error) {
		line = bytes.TrimRight(line, "\r")
		if len(line) == 0 || line[0] == '#' {
			return nil, nil, nil
		}
		src, dst, ok := bytes.Cut(line, []byte{','})
		switch {
		case !ok || bytes.IndexByte(dst, ',') >= 0:
			return nil, nil, errors.New("want exactly two comma-separated fields")
		case len(src) == 0 || len(dst) == 0:
			return nil, nil, errors.New("empty field")
		}
		return src, dst, nil
	})
}

// IngestJSONL bulk-loads a binary relation from JSON Lines: one
// {"src": "...", "dst": "..."} object per line. Same semantics as
// IngestCSV, for pipelines that already speak JSONL.
func (db *DB) IngestJSONL(r io.Reader, relation string) (IngestStats, error) {
	return db.ingestEdges(r, relation, func(line []byte) (src, dst []byte, err error) {
		if line = bytes.TrimSpace(line); len(line) == 0 {
			return nil, nil, nil
		}
		var rec struct {
			Src string `json:"src"`
			Dst string `json:"dst"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, nil, err
		}
		if rec.Src == "" || rec.Dst == "" {
			return nil, nil, errors.New("src and dst are required")
		}
		return []byte(rec.Src), []byte(rec.Dst), nil
	})
}

// ingestEdges reads r line by line through one bufio.Scanner, whose
// buffer starts at 64 KiB and grows to 1 MiB, the longest line accepted.
// parse turns a line into an edge, or nil endpoints for a line it skips.
// Each endpoint is numbered in a symtab.Names arena — one hash probe per
// endpoint, and one copy of the bytes the first time a name is met — and
// the edge list over those numbers is installed as a CSR-form relation in
// one shot. The distinct names are put in name order once and interned in
// that order, so the fresh ones take ascending ids and a snapshot of the
// result finds its names already in order. Names are interned only
// inside the write, once the read succeeded and the relation is known to
// be new, so a failed ingest leaves the symbol table as it found it.
func (db *DB) ingestEdges(r io.Reader, relation string, parse func(line []byte) (src, dst []byte, err error)) (IngestStats, error) {
	var local symtab.Names
	var pairs []symtab.Sym
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		src, dst, err := parse(sc.Bytes())
		if err != nil {
			return IngestStats{}, fmt.Errorf("chainlog: ingest: line %d: %w", lineNo, err)
		}
		if src == nil {
			continue
		}
		s, err1 := local.Add(src)
		d, err2 := local.Add(dst)
		if err := cmp.Or(err1, err2); err != nil {
			return IngestStats{}, err
		}
		pairs = append(pairs, s, d)
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		return IngestStats{}, fmt.Errorf("chainlog: ingest: line %d exceeds 1MiB", lineNo+1)
	} else if sc.Err() != nil {
		return IngestStats{}, sc.Err()
	}
	names := local.Strings()
	perm := symtab.Order(names)
	sorted := make([]string, len(perm))
	for j, i := range perm {
		sorted[j] = names[i]
	}
	var stats IngestStats
	err := db.write(func() (change, error) {
		if db.store.Relation(relation) != nil {
			return change{}, fmt.Errorf("chainlog: ingest: relation %s already exists", relation)
		}
		syms := db.st.InternAll(sorted)
		remap := make([]symtab.Sym, len(names)+1) // Names numbers from 1
		for j, i := range perm {
			remap[i+1] = syms[j]
		}
		for i, s := range pairs {
			pairs[i] = remap[s]
		}
		rel, err := db.store.BuildBinary(relation, pairs)
		if err != nil {
			return change{}, err
		}
		stats = IngestStats{Lines: len(pairs) / 2, Edges: rel.Len()}
		return change{bulk: true}, nil
	})
	return stats, err
}
