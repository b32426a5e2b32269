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
// Synonymy is symmetric and transitive. Each entry is kept as written
// and matched as written, as a case-sensitive substring like a typed
// term; only looking a term's class up folds case.
type Thesaurus struct {
	t *fulltext.Thesaurus
}

// NewThesaurus returns an empty thesaurus.
func NewThesaurus() *Thesaurus {
	return &Thesaurus{t: fulltext.NewThesaurus()}
}

// Add declares the entries synonymous, each trimmed and kept as
// written; a phrase is one entry.
func (t *Thesaurus) Add(term string, synonyms ...string) *Thesaurus {
	t.t.Add(term, synonyms...)
	return t
}

// Expand returns what Locate broadens term to: term as typed and every
// entry of its synonym class as written, sorted. A term with no class
// expands to itself.
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
