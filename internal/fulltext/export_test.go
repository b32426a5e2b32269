package fulltext

// TokenBuilds returns how often the token postings of idx were built.
func (idx *Index) TokenBuilds() int32 { return idx.postBuilds.Load() }
