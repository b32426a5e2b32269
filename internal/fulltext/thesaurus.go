package fulltext

import (
	"maps"
	"strings"

	"ncq/internal/bat"
)

// Thesaurus holds synonym sets for query broadening. Section 4 of the
// paper: "thesauri are a promising tool to help a user find interesting
// results, especially to broaden a search that returned too few
// answers."
//
// An entry is kept as written (trimmed, not tokenised), because each
// entry is searched as a `contains` needle, exactly as a typed term is:
// "database system" is one entry, and "DB" stays upper-case. Only the
// class lookup folds case. Synonymy is symmetric and transitive: adding
// a→b and b→c puts a, b and c into one class. The zero value is not
// usable; construct with NewThesaurus.
type Thesaurus struct {
	// classes maps every entry, case-folded, to its class: the entries
	// as written, sorted. Add replaces a class with a fresh slice and
	// never writes into one, so a Clone may share them.
	classes map[string][]string
}

// NewThesaurus returns an empty thesaurus.
func NewThesaurus() *Thesaurus {
	return &Thesaurus{classes: make(map[string][]string)}
}

// Add declares the given entries synonymous with term, merging the
// classes any of them already belong to. Blank entries are dropped.
func (t *Thesaurus) Add(term string, synonyms ...string) {
	var class []string
	for _, e := range append([]string{term}, synonyms...) {
		if e = strings.TrimSpace(e); e != "" {
			class = append(class, e)
			class = append(class, t.classes[strings.ToLower(e)]...)
		}
	}
	if len(class) == 0 {
		return
	}
	class = bat.SortDedup(class)
	for _, e := range class {
		t.classes[strings.ToLower(e)] = class
	}
}

// Expand returns the needles term broadens to: term as typed and every
// entry of its class as written, sorted and deduplicated. A term with
// no class expands to itself alone.
func (t *Thesaurus) Expand(term string) []string {
	return bat.SortDedup(append([]string{term}, t.classes[strings.ToLower(term)]...))
}

// Clone returns a copy that later Adds to t do not change.
func (t *Thesaurus) Clone() *Thesaurus {
	return &Thesaurus{classes: maps.Clone(t.classes)}
}
