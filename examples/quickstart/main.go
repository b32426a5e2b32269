// Quickstart: the paper's running example end to end.
//
// The document below is Figure 1 of the paper: a small bibliography
// whose mark-up the user supposedly does not know. We ask what connects
// 'Bit' and '1999' — first with the regular-path-expression baseline
// (which over-answers), then with the meet operator (which answers
// "an article").
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"ncq"
)

const bibliography = `<bibliography>
  <institute>
    <article key="BB99">
      <author><firstname>Ben</firstname><lastname>Bit</lastname></author>
      <title>How to Hack</title>
      <year>1999</year>
    </article>
    <article key="BK99">
      <author>Bob Byte</author>
      <title>Hacking &amp; RSI</title>
      <year>1999</year>
    </article>
  </institute>
</bibliography>`

func main() {
	db, err := ncq.OpenString(bibliography)
	if err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	fmt.Printf("loaded %d nodes across %d paths\n\n", st.Nodes, st.Paths)

	// The baseline of the paper's introduction: every node whose
	// offspring contains both strings. The answer drowns the article
	// in its implied ancestors.
	baseline, err := db.Query(`
		SELECT tag(e)
		FROM //* AS e
		WHERE e CONTAINS 'Bit' AND e CONTAINS '1999'`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("regular path expressions (the baseline):")
	fmt.Println(baseline.XML())

	// The meet operator: the nearest concept of the two strings.
	answer, err := db.Query(`
		SELECT meet(e1, e2)
		FROM //cdata AS e1, //cdata AS e2
		WHERE e1 CONTAINS 'Bit' AND e2 CONTAINS '1999'`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nnearest concept query (the meet operator):")
	fmt.Println(answer.XML())

	// The same through the Go API — a full-text search per term, then
	// the meet of the hits — with the matched subtree: the paper's
	// "starting point for displaying and browsing".
	ctx := context.Background()
	sets, err := db.Locate(ctx, nil, "Bit", "1999")
	if err != nil {
		log.Fatal(err)
	}
	meets, _, err := db.MeetOf(ctx, nil, sets...)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range meets {
		xml, err := db.Subtree(m.Node)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nnearest concept <%s> at distance %d:\n  %s\n", m.Tag, m.Distance, xml)
	}
}
