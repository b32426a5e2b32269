package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"ncq"
)

// sampleSize is how many of a workload's distinct requests the warm-up
// round compares byte for byte with the oracle (the rest are checked by
// meet count).
const sampleSize = 64

// expectation is the oracle's answer to one query.
type expectation struct {
	meets   int
	payload []byte // sampled queries only: the exact bytes the server must send
}

// oracle holds, per corpus state (0 = as uploaded, 1 = bib00 replaced
// by churnAlt), the expected answer of every query of the workload.
type oracle struct {
	expect [2][]expectation
}

// openCorpus loads the documents the way the server's PUT handler
// does: ncq.Open for a plain upload, AddSharded for ?shards=K on a
// small body.
func openCorpus(docs []document, parallelism int) (*ncq.Corpus, error) {
	c := ncq.NewCorpus()
	c.SetParallelism(parallelism)
	for _, d := range docs {
		if err := putDoc(c, d); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func putDoc(c *ncq.Corpus, d document) error {
	if d.shards > 1 {
		doc, err := ncq.ParseDocument(bytes.NewReader(d.xml))
		if err != nil {
			return fmt.Errorf("oracle: %s: %w", d.name, err)
		}
		_, _, err = c.AddSharded(d.name, doc, d.shards)
		return err
	}
	db, err := ncq.Open(bytes.NewReader(d.xml))
	if err != nil {
		return fmt.Errorf("oracle: %s: %w", d.name, err)
	}
	_, err = c.Put(d.name, db)
	return err
}

// newOracle answers every query of w in process with ncq.Corpus over
// the same generated bytes. Only churn_rw visits state 1.
func newOracle(ctx context.Context, w *workload, c corpus) (*oracle, error) {
	oc, err := openCorpus(c.docs, 0)
	if err != nil {
		return nil, err
	}
	o := &oracle{}
	states := 1
	if w.name == churnRW {
		states = 2
	}
	for s := 0; s < states; s++ {
		if s == 1 {
			if err := putDoc(oc, c.churnAlt); err != nil {
				return nil, err
			}
		}
		o.expect[s] = make([]expectation, len(w.queries))
		for i, q := range w.queries {
			res, err := oc.Run(ctx, q.request(0))
			if err != nil {
				return nil, fmt.Errorf("oracle: %s query %d: %w", w.name, i, err)
			}
			e := expectation{meets: len(res.Meets)}
			if i < sampleSize {
				if e.payload, err = wirePayload(q, res.Meets); err != nil {
					return nil, err
				}
			}
			o.expect[s][i] = e
		}
	}
	return o, nil
}

// wirePayload renders meets as the server must: the NDJSON meet lines
// of a stream, or the "meets" array of an enveloped result.
func wirePayload(q query, meets []ncq.CorpusMeet) ([]byte, error) {
	if !q.stream {
		return json.Marshal(meets)
	}
	var buf bytes.Buffer
	for i := range meets {
		line, err := json.Marshal(map[string]*ncq.CorpusMeet{"meet": &meets[i]})
		if err != nil {
			return nil, err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}
