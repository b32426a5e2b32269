package ncq_test

import (
	"context"
	"fmt"
	"log"

	"ncq"
)

const bib = `<bibliography><institute>
<article key="BB99"><author><firstname>Ben</firstname><lastname>Bit</lastname></author>
<title>How to Hack</title><year>1999</year></article>
<article key="BK99"><author>Bob Byte</author><title>Hacking &amp; RSI</title><year>1999</year></article>
</institute></bibliography>`

// The headline interaction: ask what connects two strings without
// knowing any tags — a full-text search per string, then the meet of
// the hits. The answer's type comes from the data.
func ExampleDatabase_MeetOf() {
	db, err := ncq.OpenString(bib)
	if err != nil {
		log.Fatal(err)
	}
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
		fmt.Printf("<%s> at distance %d\n", m.Tag, m.Distance)
	}
	// Output:
	// <article> at distance 5
}

// The unified execution API: one Request in, one Result out — the same
// surface a Corpus and the ncqd server speak — with context
// cancellation, pushed-down limits and cursor pagination.
func ExampleQuerier_Run() {
	db, err := ncq.OpenString(bib)
	if err != nil {
		log.Fatal(err)
	}
	res, err := db.Run(context.Background(), ncq.Request{
		Terms: []string{"Bit", "1999"},
		Limit: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range res.Meets {
		fmt.Printf("<%s> at distance %d\n", m.Tag, m.Distance)
	}
	// Output:
	// <article> at distance 5
}

// Cursor pagination: ask for one page at a time by carrying the
// cursor forward. A cursor is bound to the exact query that minted it
// and to the corpus generation — presenting it after any mutation
// fails with ErrStaleCursor (410 Gone over HTTP) instead of silently
// cutting the next page from a re-ranked answer set.
func ExampleQuerier_Run_cursorPaging() {
	db, err := ncq.OpenString(`<bib>` +
		`<article><author>Ann Bit</author><year>1999</year></article>` +
		`<article><author>Bob Bit</author><year>1999</year></article>` +
		`</bib>`)
	if err != nil {
		log.Fatal(err)
	}
	req := ncq.Request{Terms: []string{"Bit", "1999"}, Limit: 1}
	for page := 1; ; page++ {
		res, err := db.Run(context.Background(), req)
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range res.Meets {
			fmt.Printf("page %d: <%s> at distance %d\n", page, m.Tag, m.Distance)
		}
		if res.NextCursor == "" {
			break
		}
		req.Cursor = res.NextCursor // same query, next page
	}
	// Output:
	// page 1: <article> at distance 4
	// page 2: <article> at distance 4
}

// The iterator-native surface: ranked meets as an incremental
// sequence. On a corpus the meets flow as soon as every member has
// produced its first answer; breaking out of the range ends execution
// early.
func ExampleQuerier_Results() {
	db, err := ncq.OpenString(bib)
	if err != nil {
		log.Fatal(err)
	}
	for m, err := range db.Results(context.Background(), ncq.Request{
		Terms: []string{"Bit", "1999"},
	}) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("<%s> at distance %d\n", m.Tag, m.Distance)
		break // the pushed-down limit: stop after the best concept
	}
	// Output:
	// <article> at distance 5
}

// The paper's SQL variant with meet as a declarative aggregation.
func ExampleDatabase_Query() {
	db, err := ncq.OpenString(bib)
	if err != nil {
		log.Fatal(err)
	}
	ans, err := db.Query(`
		SELECT meet(e1, e2)
		FROM //cdata AS e1, //cdata AS e2
		WHERE e1 CONTAINS 'Bit' AND e2 CONTAINS '1999'`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ans.XML())
	// Output:
	// <answer>
	//   <result> article </result>
	// </answer>
}

// Restricting the result type turns the meet into keyword search
// (Section 6 of the paper).
func ExampleRestrict() {
	db, err := ncq.OpenString(bib)
	if err != nil {
		log.Fatal(err)
	}
	res, err := db.Run(context.Background(), ncq.Request{Terms: []string{"Ben", "Bit"}, Options: ncq.Restrict("//article")})
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range res.Meets {
		fmt.Printf("<%s key=%q>\n", m.Tag, mustAttr(db, m.Node, "key"))
	}
	// Output:
	// <article key="BB99">
}

// Explain renders a meet in terms of its witnesses' contexts.
func ExampleDatabase_Explain() {
	db, err := ncq.OpenString(bib)
	if err != nil {
		log.Fatal(err)
	}
	res, err := db.Run(context.Background(), ncq.Request{Terms: []string{"Bit", "1999"}})
	if err != nil {
		log.Fatal(err)
	}
	text, err := db.Explain(res.Meets[0].Meet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(text)
	// Output:
	// <article> connects:
	//   · author/lastname/cdata = "Bit"
	//   · year/cdata = "1999"
}

// Meet2 computes the nearest concept of an explicit pair.
func ExampleDatabase_Meet2() {
	db, err := ncq.OpenString(bib)
	if err != nil {
		log.Fatal(err)
	}
	sets, err := db.Locate(context.Background(), nil, "Ben", "Bit")
	if err != nil {
		log.Fatal(err)
	}
	m, err := db.Meet2(sets[0][0], sets[1][0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("<%s> %d edges apart\n", m.Tag, m.Distance)
	// Output:
	// <author> 4 edges apart
}

// A thesaurus broadens a search that returned too few answers. Its
// entries match as written, like typed terms: "Bob", not "bob".
func ExampleThesaurus() {
	db, err := ncq.OpenString(bib)
	if err != nil {
		log.Fatal(err)
	}
	th := ncq.NewThesaurus().Add("robert", "Bob")
	sets, err := db.Locate(context.Background(), th, "Robert")
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range sets[0] {
		fmt.Println(db.Value(n))
	}
	// Output:
	// Bob Byte
}

func mustAttr(db *ncq.Database, n ncq.NodeID, name string) string {
	v, _ := db.Attr(n, name)
	return v
}
