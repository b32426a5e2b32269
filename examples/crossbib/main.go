// Crossbib: the cross-bibliography application of Section 4.
//
// "We may want to know whether a certain bibliographical item that we
// found in one bibliography also lives in another bibliography;
// however, we have no idea how the relevant information is marked up.
// So a good approach is to combine the meet operator with fulltext
// search … and use the results as a starting point for displaying and
// browsing."
//
// Three files mark the same publication up in three different ways; one
// nearest concept query finds it in all of them, and the result type
// differs per file — exactly the paper's point that the type depends on
// the database instance.
//
// Run with: go run ./examples/crossbib
package main

import (
	"context"
	"fmt"
	"log"

	"ncq"
)

var sources = map[string]string{
	"cwi.xml": `<bibliography><institute>
		<article key="BB99">
			<author><firstname>Ben</firstname><lastname>Bit</lastname></author>
			<title>How to Hack</title><year>1999</year>
		</article>
	</institute></bibliography>`,

	"personal.xml": `<refs>
		<entry><who>Ben Bit</who><what>How to Hack</what><when>1999</when></entry>
		<entry><who>Carol Code</who><what>Sorting Things</what><when>1997</when></entry>
	</refs>`,

	"legacy.xml": `<pubs>
		<pub y="1999" by="Bit, Ben">How to Hack</pub>
		<pub y="1998" by="Доу, J.">Unrelated</pub>
	</pubs>`,
}

func main() {
	corpus := ncq.NewCorpus()
	for _, name := range []string{"cwi.xml", "personal.xml", "legacy.xml"} {
		db, err := ncq.OpenString(sources[name])
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		if _, err := corpus.Put(name, db); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println(`searching all bibliographies for the item described by "Bit" and "1999":`)
	res, err := corpus.Run(context.Background(), ncq.Request{Terms: []string{"Bit", "1999"}, Options: ncq.ExcludeRoot()})
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range res.Meets {
		db, _ := corpus.Get(m.Source)
		xml, err := db.Subtree(m.Node)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%-14s concept <%s> at distance %d:\n  %s\n", m.Source, m.Tag, m.Distance, xml)
		explained, err := db.Explain(m.Meet)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s", indent(explained))
	}
	fmt.Println("\nThe same item surfaces as <article>, <entry> and <pub> — the result")
	fmt.Println("type is not part of the query, it comes from each database instance.")
}

func indent(s string) string {
	out := ""
	for i, line := range splitLines(s) {
		if i > 0 {
			out += "  "
		}
		out += line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			if cur != "" {
				lines = append(lines, cur)
			}
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		lines = append(lines, cur)
	}
	return lines
}
