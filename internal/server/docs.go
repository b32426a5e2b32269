package server

import (
	"errors"
	"net/http"
	"runtime/trace"
	"strconv"
	"strings"

	"ncq"
	"ncq/internal/wire"
)

// SnapshotContentType marks a PUT /v1/docs/{name} body as a binary
// snapshot (SaveSnapshot output) instead of XML: the document loads
// without a parse or shred. The cluster coordinator forwards the
// header verbatim, so snapshot uploads work through it unchanged.
const SnapshotContentType = "application/x-ncq-snapshot"

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

// handlePutDoc loads the request body as a document and registers it
// under the path name, replacing any previous document of that name.
// With ?shards=K the document is split into up to K subtree shards that
// later queries fan out over in parallel; clients keep addressing the
// document by this one name. The handler only negotiates the format:
// how XML bytes become shards is ncq.OpenSharded's decision, and how
// the shards are registered — persisted first, or not — the writer's.
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
	// Content negotiation: a snapshot body is loaded without the XML
	// parse and shred. Snapshots carry their own sharding decision, so
	// ?shards is not meaningful there.
	snapshot := strings.HasPrefix(r.Header.Get("Content-Type"), SnapshotContentType)
	if snapshot && k > 1 {
		wire.WriteError(w, http.StatusBadRequest, "\"shards\" does not apply to a snapshot body")
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBody)

	// One trace task per upload: its stages are the regions
	// "parse+shred", in which the loader's "index wait" and "layout+seal"
	// nest, and "commit".
	ctx, task := trace.NewTask(r.Context(), "put")
	defer task.End()
	parse := trace.StartRegion(ctx, "parse+shred")
	var dbs []*ncq.Database
	if snapshot {
		var db *ncq.Database
		db, err = ncq.OpenSnapshot(ctx, body)
		dbs = []*ncq.Database{db}
	} else {
		dbs, err = ncq.OpenSharded(ctx, body, r.ContentLength, k)
	}
	parse.End()
	if err != nil {
		writeParseError(w, err)
		return
	}
	// dbs describe exactly this upload, so the response stays truthful
	// even when a concurrent PUT or DELETE of the same name wins the
	// follow-up race.
	commit := trace.StartRegion(ctx, "commit")
	replaced, err := s.docs.Put(name, dbs, k > 1)
	commit.End()
	if err != nil {
		wire.WriteError(w, http.StatusInternalServerError, "register document: %v", err)
		return
	}
	s.front.Mutated()
	s.stampGeneration(w)
	status := http.StatusCreated
	if replaced {
		status = http.StatusOK
	}
	wire.WriteJSON(w, status, wire.Doc{Name: name, Shards: len(dbs), Stats: ncq.AggregateStats(dbs)})
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
	wire.WriteJSON(w, http.StatusOK, wire.Doc{Name: name, Shards: shards, Stats: st})
}

func (s *Server) handleDeleteDoc(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	found, err := s.docs.Delete(name)
	if err != nil {
		wire.WriteError(w, http.StatusInternalServerError, "evict document: %v", err)
		return
	}
	if !found {
		wire.WriteError(w, http.StatusNotFound, "no document %q", name)
		return
	}
	s.front.Mutated()
	s.stampGeneration(w)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleListDocs(w http.ResponseWriter, r *http.Request) {
	docs := []wire.Doc{}
	for _, name := range s.corpus.Names() {
		if st, shards, ok := s.corpus.MemberStats(name); ok {
			docs = append(docs, wire.Doc{Name: name, Shards: shards, Stats: st})
		}
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"docs":       docs,
		"generation": s.corpus.Generation(),
	})
}
