package server

import (
	"errors"
	"net/http"
	"strconv"
	"strings"

	"ncq"
	"ncq/internal/shard"
	"ncq/internal/wire"
	"ncq/internal/xmltree"
)

// SnapshotContentType marks a PUT /v1/docs/{name} body as a binary
// snapshot (SaveSnapshot output) instead of XML: the document loads
// without a parse or shred. The cluster coordinator forwards the
// header verbatim, so snapshot uploads work through it unchanged.
const SnapshotContentType = "application/x-ncq-snapshot"

// streamShardBudget is the per-shard input budget for chunked uploads
// whose total size is unknown (no Content-Length).
const streamShardBudget = 8 << 20

// smallShardedBody is the Content-Length up to which a sharded upload
// is buffered and split by node count (perfectly balanced shards);
// anything larger — or of unknown length — streams, deciding shard
// boundaries by byte budget as the parse goes so the raw body is never
// buffered whole.
const smallShardedBody = 4 << 20

// docInfo is the document metadata returned by the docs endpoints.
// Stats aggregate over all shards of a sharded document.
type docInfo struct {
	Name   string    `json:"name"`
	Shards int       `json:"shards"`
	Stats  ncq.Stats `json:"stats"`
}

// validDocName rejects names that would be ambiguous in URLs or
// unreasonable as identifiers. The ServeMux wildcard already excludes
// empty segments and slashes; this guards length and control bytes.
func validDocName(name string) bool {
	if name == "" || len(name) > maxDocNameLen {
		return false
	}
	for _, r := range name {
		if r < 0x20 || r == 0x7f {
			return false
		}
	}
	return !strings.ContainsAny(name, "/\\")
}

// shardsParam parses the optional ?shards=K query parameter: 0 or 1
// (and absence) mean an unsharded upload.
func shardsParam(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("shards")
	if raw == "" {
		return 0, nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k < 0 {
		return 0, errors.New("\"shards\" must be a non-negative integer")
	}
	if k > maxShardsParam {
		return 0, errors.New("\"shards\" must be at most " + strconv.Itoa(maxShardsParam))
	}
	return k, nil
}

// handlePutDoc loads the XML request body as a document and registers
// it under the path name, replacing any previous document of that
// name. With ?shards=K the document is split into up to K subtree
// shards that later queries fan out over in parallel; clients keep
// addressing the document by this one name.
func (s *Server) handlePutDoc(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !validDocName(name) {
		wire.WriteError(w, http.StatusBadRequest, "invalid document name %q", name)
		return
	}
	k, err := shardsParam(r)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBody)

	var replaced bool
	info := docInfo{Name: name}
	switch {
	case strings.HasPrefix(r.Header.Get("Content-Type"), SnapshotContentType):
		// Content negotiation: the body is a binary snapshot, loaded
		// without the XML parse and shred. Snapshots carry their own
		// sharding decision, so ?shards is not meaningful here.
		if k > 1 {
			wire.WriteError(w, http.StatusBadRequest, "\"shards\" does not apply to a snapshot body")
			return
		}
		db, err := ncq.OpenSnapshot(body)
		if err != nil {
			writeParseError(w, err)
			return
		}
		if replaced, err = s.putPlain(name, db); err != nil {
			wire.WriteError(w, http.StatusInternalServerError, "register document: %v", err)
			return
		}
		info.Shards, info.Stats = 1, db.Stats()
	case k > 1 && r.ContentLength >= 0 && r.ContentLength <= smallShardedBody && s.store == nil:
		// Small body, no durability: buffer and split by node count for
		// perfectly balanced shards, exactly as before.
		doc, err := ncq.ParseDocument(body)
		if err != nil {
			writeParseError(w, err)
			return
		}
		// The returned shard databases describe exactly this upload, so
		// the response stays truthful even when a concurrent PUT or
		// DELETE of the same name wins the follow-up race.
		dbs, repl, err := s.corpus.AddSharded(name, doc, k)
		if err != nil {
			wire.WriteError(w, http.StatusInternalServerError, "register document: %v", err)
			return
		}
		replaced = repl
		info.Shards, info.Stats = len(dbs), ncq.AggregateStats(dbs)
	case k > 1:
		// Shard boundaries are decided as the parse streams, so a
		// chunked or multi-GB upload is never buffered whole. The byte
		// budget comes from Content-Length when the client sent one.
		// Small durable uploads take this path too: what it costs in
		// balance it repays by producing the shard databases the
		// durability layer persists one file each.
		budget := int64(streamShardBudget)
		if r.ContentLength > 0 {
			budget = r.ContentLength / int64(k)
			if budget < 1 {
				budget = 1
			}
		}
		var dbs []*ncq.Database
		if _, err := shard.SplitStream(body, budget, k, func(d *xmltree.Document) error {
			db, err := ncq.FromDocument(d)
			if err != nil {
				return err
			}
			dbs = append(dbs, db)
			return nil
		}); err != nil {
			writeParseError(w, err)
			return
		}
		var err error
		if s.store != nil {
			replaced, err = s.store.PutShards(name, dbs)
		} else {
			replaced, err = s.corpus.AddShardDBs(name, dbs)
		}
		if err != nil {
			wire.WriteError(w, http.StatusInternalServerError, "register document: %v", err)
			return
		}
		info.Shards, info.Stats = len(dbs), ncq.AggregateStats(dbs)
	default:
		db, err := ncq.Open(body)
		if err != nil {
			writeParseError(w, err)
			return
		}
		if replaced, err = s.putPlain(name, db); err != nil {
			wire.WriteError(w, http.StatusInternalServerError, "register document: %v", err)
			return
		}
		info.Shards, info.Stats = 1, db.Stats()
	}
	s.invalidate()
	s.stampGeneration(w)
	status := http.StatusCreated
	if replaced {
		status = http.StatusOK
	}
	wire.WriteJSON(w, status, info)
}

// writeParseError distinguishes an oversized upload from a malformed
// one.
func writeParseError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		wire.WriteError(w, http.StatusRequestEntityTooLarge,
			"document exceeds the %d byte limit", tooLarge.Limit)
		return
	}
	wire.WriteError(w, http.StatusBadRequest, "parse document: %v", err)
}

func (s *Server) handleGetDoc(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	st, shards, ok := s.corpus.MemberStats(name)
	if !ok {
		wire.WriteError(w, http.StatusNotFound, "no document %q", name)
		return
	}
	wire.WriteJSON(w, http.StatusOK, docInfo{Name: name, Shards: shards, Stats: st})
}

// putPlain registers an unsharded document, through the durability
// layer when one is attached.
func (s *Server) putPlain(name string, db *ncq.Database) (bool, error) {
	if s.store != nil {
		return s.store.PutPlain(name, db)
	}
	return s.corpus.Put(name, db)
}

func (s *Server) handleDeleteDoc(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.store != nil {
		ok, err := s.store.Delete(name)
		if err != nil {
			wire.WriteError(w, http.StatusInternalServerError, "evict document: %v", err)
			return
		}
		if !ok {
			wire.WriteError(w, http.StatusNotFound, "no document %q", name)
			return
		}
	} else if !s.corpus.Remove(name) {
		wire.WriteError(w, http.StatusNotFound, "no document %q", name)
		return
	}
	s.invalidate()
	s.stampGeneration(w)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleListDocs(w http.ResponseWriter, r *http.Request) {
	docs := []docInfo{}
	for _, name := range s.corpus.Names() {
		if st, shards, ok := s.corpus.MemberStats(name); ok {
			docs = append(docs, docInfo{Name: name, Shards: shards, Stats: st})
		}
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"docs":       docs,
		"generation": s.corpus.Generation(),
	})
}
