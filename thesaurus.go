package ncq

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"ncq/internal/fulltext"
)

// Thesaurus holds synonym classes used to broaden searches — the
// Section 4 suggestion for queries that return too few answers.
// Synonymy is symmetric and transitive; terms are case-folded.
type Thesaurus struct {
	t *fulltext.Thesaurus
}

// NewThesaurus returns an empty thesaurus.
func NewThesaurus() *Thesaurus {
	return &Thesaurus{t: fulltext.NewThesaurus()}
}

// Add declares the terms synonymous.
func (t *Thesaurus) Add(term string, synonyms ...string) *Thesaurus {
	t.t.Add(term, synonyms...)
	return t
}

// Expand returns the full synonym class of term, including the term.
func (t *Thesaurus) Expand(term string) []string { return t.t.Expand(term) }

// ParseThesaurus reads synonym classes from r, one class per line as
// comma-separated terms:
//
//	database, databank, db
//	picture, image, img
//
// Blank lines and lines starting with # are skipped. A class line with
// fewer than two terms is an error (a single term declares nothing).
// This is the format of ncqd's -thesaurus flag.
func ParseThesaurus(r io.Reader) (*Thesaurus, error) {
	t := NewThesaurus()
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		var terms []string
		for _, part := range strings.Split(s, ",") {
			if part = strings.TrimSpace(part); part != "" {
				terms = append(terms, part)
			}
		}
		if len(terms) < 2 {
			return nil, fmt.Errorf("ncq: thesaurus line %d: a synonym class needs at least two terms", line)
		}
		t.Add(terms[0], terms[1:]...)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ncq: thesaurus: %w", err)
	}
	return t, nil
}

// SearchExpanded searches for term and all of its synonyms.
func (db *Database) SearchExpanded(t *Thesaurus, term string) []Hit {
	if t == nil {
		return db.Search(term)
	}
	return db.wrapHits(db.index.SearchExpanded(t.t, term))
}
