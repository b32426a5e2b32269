package fulltext

import "ncq/internal/bat"

// TokenBuilds returns how often the token postings of idx were built.
func (idx *Index) TokenBuilds() int32 { return idx.postBuilds.Load() }

// OwnersSubstringMiss is OwnersSubstring with the memo bypassed: what
// every needle costs the first time an index is asked for it.
func (idx *Index) OwnersSubstringMiss(sub string) []bat.OID { return idx.locateOwners(sub) }
