package ncq

// TokenIndexBuilt reports whether a token search has built the
// database's token postings.
func (db *Database) TokenIndexBuilt() bool { return db.index.TokensBuilt() }
