package chainlog

import (
	"chainlog/internal/edb"
	"chainlog/internal/symtab"
)

// NewDBOver assembles a DB around an existing symbol table and store, as
// OpenSnapshot does around a mapped file — for tests that lay out a
// snapshot base by hand.
func NewDBOver(st *symtab.Table, store *edb.Store) *DB { return newDBAt(st, store, 1) }

// OptionsKey is the plan-cache key's options part.
type OptionsKey = optionsKey
