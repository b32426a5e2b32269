package ncq

import "reflect"

// TokenIndexBuilt reports whether a token search has built the
// database's token postings.
func (db *Database) TokenIndexBuilt() bool { return db.index.TokensBuilt() }

// OIDListsBuilt reports whether something has built the store's
// per-path OID lists, a view no exported name reports: read by
// reflection off the store's unexported field.
func (db *Database) OIDListsBuilt() bool {
	return !reflect.ValueOf(db.store).Elem().FieldByName("oidsAt").IsNil()
}
