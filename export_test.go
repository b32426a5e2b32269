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

// StringsView returns where the store's string relations live once
// something has built them, and 0 before: a view no exported name
// reports, read by reflection off the store's unexported field.
func (db *Database) StringsView() uintptr {
	return reflect.ValueOf(db.store).Elem().FieldByName("strs").Pointer()
}
