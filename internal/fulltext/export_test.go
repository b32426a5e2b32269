package fulltext

import "ncq/internal/bat"

// TokenBuilds returns how often the token postings of idx were built.
func (idx *Index) TokenBuilds() int32 { return idx.postBuilds.Load() }

// OwnersSubstringMiss is OwnersSubstring with the memo bypassed: what
// every needle costs the first time an index is asked for it.
func (idx *Index) OwnersSubstringMiss(sub string) []bat.OID { return idx.locateOwners(sub) }

// buildSubstringIndex is the substring build over idx's values and rows
// in one go: the counting pass a builder runs as it is fed, then the
// fills.
func (idx *Index) buildSubstringIndex() {
	buckets := new([gramBuckets]bucket)
	for i := range buckets {
		buckets[i].last = -1
	}
	for vid, v := range idx.values {
		countGrams(buckets, int32(vid), v)
	}
	idx.fillGrams(buckets, idx.values)
	idx.fillValRows(len(idx.values))
}
