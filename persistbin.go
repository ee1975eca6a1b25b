package chainlog

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
	"unsafe"

	"chainlog/internal/ast"
	"chainlog/internal/edb"
	"chainlog/internal/snapshot"
	"chainlog/internal/symtab"
)

// SnapshotMagic is the 8-byte prefix identifying a binary snapshot.
const SnapshotMagic = snapshot.Magic

// SnapshotBinary writes the extensional database as a binary columnar
// snapshot and returns the fact epoch the content captures, both under
// one read lock, so the pair is a consistent replication snapshot: a
// replica restoring it and replaying log records above the epoch lands
// exactly on the primary's state. If begin is non-nil it is called with
// the epoch before the first byte is written — an HTTP handler uses it
// to emit the X-Chainlog-Epoch header ahead of a streamed body. The
// format is versioned, checksummed and mmap-able; see OpenSnapshot.
func (db *DB) SnapshotBinary(w io.Writer, begin func(epoch uint64)) (uint64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if begin != nil {
		begin(db.factEpoch)
	}
	if err := snapshot.Write(w, db.st, db.store, db.factEpoch); err != nil {
		return 0, err
	}
	return db.factEpoch, nil
}

// WriteSnapshot writes a binary snapshot to path crash-safely (see
// replaceFile): a crash leaves either the old complete file or the new
// complete file, never a torn one.
func (db *DB) WriteSnapshot(path string) error {
	return replaceFile(path, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<20)
		if _, err := db.SnapshotBinary(bw, nil); err != nil {
			return err
		}
		return bw.Flush()
	})
}

// OpenSnapshot memory-maps the binary snapshot at path and returns a DB
// serving it with zero-copy cold start: after the one sequential
// checksum pass, the symbol table and every relation's CSR adjacency
// alias the mapping directly — no parsing, no interning, no index
// building, and the page cache (not the heap) holds the data. The fact
// epoch is the one the snapshot was taken at.
//
// Rules are loaded on top with LoadProgram as usual. The first mutation
// of a mapped relation transparently thaws it into ordinary heap form;
// reads never do. Call Close when the DB is no longer in use to release
// the mapping — not before, since live queries read through it.
func OpenSnapshot(path string) (*DB, error) {
	f, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	st, store, err := f.Build()
	if err != nil {
		f.Close()
		return nil, err
	}
	db := newDBAt(st, store, f.Epoch)
	db.snap = f
	return db, nil
}

// newDBAt assembles a DB around an existing symtab/store pair at the
// given fact epoch.
func newDBAt(st *symtab.Table, store *edb.Store, epoch uint64) *DB {
	if epoch == 0 {
		epoch = 1
	}
	return &DB{st: st, store: store, prog: &ast.Program{}, ruleEpoch: 1, factEpoch: epoch}
}

// Close releases resources a constructor attached to the DB — today the
// snapshot mapping behind OpenSnapshot. It is a no-op for DBs built any
// other way, and idempotent. The DB must not be used afterwards.
func (db *DB) Close() error {
	if db.snap == nil {
		return nil
	}
	s := db.snap
	db.snap = nil
	return s.Close()
}

// RestoreFactsAuto replaces the extensional database with the snapshot
// read from r and sets the fact epoch to epoch — how WAL recovery and
// replica bootstrap install a snapshot. The body must be the binary
// form SnapshotBinary writes; anything else, fact text included, is an
// error that leaves the store untouched (fact text goes through
// RestoreFacts). Unlike OpenSnapshot, the decoded facts are re-interned
// into the DB's existing symbol table (prepared plans and rules keep
// their symbols) and the store is heap-owned, so the input is not
// retained.
func (db *DB) RestoreFactsAuto(r io.Reader, epoch uint64) error {
	data, err := readAligned(r)
	if err != nil {
		return err
	}
	snap, err := snapshot.Parse(data)
	if err != nil {
		return err
	}
	// Remap snapshot symbols into the live table. SymName copies, so the
	// table does not pin data.
	remap := make([]symtab.Sym, snap.SymCount+1)
	for i := 1; i <= snap.SymCount; i++ {
		remap[i] = db.st.Intern(snap.SymName(symtab.Sym(i)))
	}
	store := edb.NewStore(db.st)
	for i := range snap.Rels {
		rel := &snap.Rels[i]
		if rel.Arity == 2 {
			pairs := make([]symtab.Sym, 0, 2*rel.Count)
			for u := 0; u <= snap.SymCount; u++ {
				for _, v := range rel.FwdNbr[rel.FwdOff[u]:rel.FwdOff[u+1]] {
					pairs = append(pairs, remap[u], remap[v])
				}
			}
			if _, err := store.BuildBinary(rel.Name, pairs); err != nil {
				return err
			}
			continue
		}
		flat := make([]symtab.Sym, len(rel.Flat))
		for j, s := range rel.Flat {
			flat[j] = remap[s]
		}
		if _, err := store.InstallFlat(rel.Name, rel.Arity, rel.Count, flat); err != nil {
			return err
		}
	}
	db.installStore(store, epoch)
	return nil
}

// OpenFiles is the boot sequence the chainlog and chainlogd commands
// share. When factsPath names a binary snapshot the DB starts as its
// zero-copy mapping (see OpenSnapshot; mapped reports it) and the
// program at programPath loads on top; otherwise the DB starts empty
// and loads programPath, then factsPath as fact text. factsPath may be
// empty. The caller Closes the DB.
func OpenFiles(programPath, factsPath string) (db *DB, mapped bool, err error) {
	if factsPath != "" {
		if mapped, err = isSnapshotFile(factsPath); err != nil {
			return nil, false, err
		}
	}
	if mapped {
		if db, err = OpenSnapshot(factsPath); err != nil {
			return nil, false, fmt.Errorf("opening snapshot %s: %w", factsPath, err)
		}
	} else {
		db = NewDB()
	}
	load := func(path string) error {
		src, err := readText(path)
		if err != nil {
			return err
		}
		if err := db.LoadProgram(src); err != nil {
			return fmt.Errorf("loading %s: %w", path, err)
		}
		return nil
	}
	if err = load(programPath); err == nil && factsPath != "" && !mapped {
		err = load(factsPath)
	}
	if err != nil {
		db.Close()
		return nil, false, err
	}
	return db, mapped, nil
}

// readText reads the file at path as a string, copying it once: into
// the string's own memory, not into a byte slice the string then copies.
func readText(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var b strings.Builder
	if fi, err := f.Stat(); err == nil { // the size is only a hint
		b.Grow(int(fi.Size()))
	}
	_, err = io.Copy(&b, f)
	return b.String(), err
}

// isSnapshotFile reports whether the file at path begins with the
// binary snapshot magic.
func isSnapshotFile(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var head [len(SnapshotMagic)]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return false, nil
		}
		return false, err
	}
	return string(head[:]) == SnapshotMagic, nil
}

// readAligned reads all of r into 8-byte-aligned memory, which the
// snapshot parser's zero-copy section decoding requires.
func readAligned(r io.Reader) ([]byte, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, nil
	}
	words := make([]uint64, (len(raw)+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(raw))
	copy(buf, raw)
	return buf, nil
}
