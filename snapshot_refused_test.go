package ncq_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"ncq"
	"ncq/internal/datagen"
	"ncq/internal/leakcheck"
	"ncq/internal/server"
)

// TestRefusedRestoresLeaveNoBuilder refuses restores of the DBLP
// member's snapshot while their index builders run beside the decode:
// the snapshot cut short at fifty offsets and with one byte flipped at
// fifty, through OpenSnapshotShard and through the server's
// snapshot-body PUT. Each is refused, registers nothing and leaves no
// builder goroutine behind. (That an aborted restore keeps no scratch
// is internal/monetx's TestRefusedReplaysKeepNothing and
// internal/fulltext's TestRefusedRestoresLeaveNothing.)
func TestRefusedRestoresLeaveNoBuilder(t *testing.T) {
	db, err := ncq.OpenString(datagen.DBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1994, YearTo: 1999, PubsPerVenueYear: 20}).XMLString())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	type refusal struct {
		label string
		body  []byte
	}
	var cases []refusal
	for i := 1; i <= 50; i++ {
		off := len(raw) * i / 51
		flipped := bytes.Clone(raw)
		flipped[off] ^= 0xff
		cases = append(cases, refusal{fmt.Sprintf("cut at %d", off), raw[:off]}, refusal{fmt.Sprintf("flipped at %d", off), flipped})
	}

	base := leakcheck.Take()
	for _, c := range cases {
		back, _, _, err := ncq.OpenSnapshotShard(bytes.NewReader(c.body))
		if err == nil || back != nil {
			t.Fatalf("%s: restored (err %v)", c.label, err)
		}
		if base.Check(t, 0, c.label); t.Failed() {
			return // a leaked builder never exits: every later check would wait it out
		}
	}

	srv := server.New(nil)
	h := srv.Handler()
	for _, c := range cases {
		req := httptest.NewRequest("PUT", "/v1/docs/doc", bytes.NewReader(c.body))
		req.Header.Set("Content-Type", server.SnapshotContentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("PUT %s: status %d, want 400: %s", c.label, rec.Code, rec.Body)
		}
		if n := srv.Corpus().Len(); n != 0 {
			t.Fatalf("PUT %s: %d members registered", c.label, n)
		}
		if base.Check(t, 0, "PUT "+c.label); t.Failed() {
			return
		}
	}
}
