package chainlog

import (
	"bufio"
	"fmt"
	"io"
	"path/filepath"

	"chainlog/internal/ast"
	"chainlog/internal/edb"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
	"chainlog/internal/wal"
)

// DumpFacts writes the extensional database as Datalog fact text, one
// fact per line, relations in insertion order. Only live facts are
// written — a retracted fact does not resurface on reload — so the
// output round-trips the DB's current state through LoadProgram.
func (db *DB) DumpFacts(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	bw := bufio.NewWriter(w)
	var werr error
	for _, name := range db.store.Relations() {
		db.store.Relation(name).Each(func(tuple []symtab.Sym) {
			if werr != nil {
				return
			}
			if _, err := bw.WriteString(name); err != nil {
				werr = err
				return
			}
			bw.WriteByte('(')
			for j, s := range tuple {
				if j > 0 {
					bw.WriteByte(',')
				}
				// Stream the name straight into the buffer: Render would
				// build an intermediate string per quoted constant, which
				// dominates dump cost on large stores.
				cname := db.st.Name(s)
				if ast.ConstNeedsQuoting(cname) {
					bw.WriteByte('\'')
					bw.WriteString(cname)
					bw.WriteByte('\'')
				} else {
					bw.WriteString(cname)
				}
			}
			if _, err := bw.WriteString(").\n"); err != nil {
				werr = err
			}
		})
		if werr != nil {
			return werr
		}
	}
	return bw.Flush()
}

// SaveFacts writes the fact text to path crash-safely (see replaceFile).
// The format is the same human-readable Datalog text DumpFacts emits,
// so saved files remain a usable export/import path.
func (db *DB) SaveFacts(path string) error {
	return replaceFile(path, db.DumpFacts)
}

// replaceFile writes path crash-safely (see wal.ReplaceFile): a crash
// at any point leaves either the old complete file or the new complete
// file — never a truncated one.
func replaceFile(path string, write func(io.Writer) error) error {
	return wal.ReplaceFile(filepath.Dir(path), filepath.Base(path)+".tmp*", func(w io.Writer) (string, error) {
		return path, write(w)
	})
}

// RestoreFacts replaces the entire extensional database with the fact
// text read from r and sets the fact epoch to epoch — the import half of
// DumpFacts. The text must contain only facts; rules belong to the
// program file every node loads at boot. Restoring is a rule-epoch
// event (see installStore), so it belongs at bootstrap, not on the
// serving hot path.
func (db *DB) RestoreFacts(r io.Reader, epoch uint64) error {
	src, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	res, err := parser.ParseDeferred(string(src), db.st)
	if err != nil {
		return err
	}
	if len(res.Program.Rules) > 0 {
		return fmt.Errorf("chainlog: snapshot contains %d rule(s); facts only", len(res.Program.Rules))
	}
	// The store is new and the parser gave each predicate's facts one
	// arity, so no insert below can meet a relation of another.
	res.Intern(db.st)
	store := edb.NewStore(db.st)
	for _, f := range res.Facts {
		store.Insert(f.Pred, f.Args...)
	}
	db.installStore(store, epoch)
	return nil
}

// DumpRules writes the intensional database as Datalog rule text. The
// output round-trips through LoadProgram (into a fresh DB).
func (db *DB) DumpRules(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, err := io.WriteString(w, db.prog.Render(db.st))
	return err
}

// Stats summary for human consumption.
func (db *DB) String() string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return fmt.Sprintf("chainlog.DB{rules: %d, relations: %d, facts: %d}",
		len(db.prog.Rules), len(db.store.Relations()), db.store.Size())
}
