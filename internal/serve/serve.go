// Package serve exposes the experiment registry over HTTP, computing
// through the content-addressed artifact store so repeated requests for
// the same configuration never re-simulate.
//
// Routes:
//
//	GET /v1/experiments                      — registry listing (JSON)
//	GET /v1/experiments/{id}?format=&quick=  — one artifact (text/json/csv)
//
// Artifact responses carry a strong ETag derived from the artifact
// content digest; requests presenting it in If-None-Match receive
// 304 Not Modified without touching the simulator or the disk bytes.
//
// # Concurrency model
//
// Simulations run on a fixed shard of compute workers. Each worker owns
// an independent experiments.Params clone — and therefore its own
// sweep.Pool, respecting Pool.Run's single-coordinator contract — so
// distinct experiments simulate genuinely in parallel. Params is an
// immutable value during builds (multi-node sweeps derive per-node
// copies with WithTech), so digests and provenance are read without any
// locking. Identical requests still collapse into one computation
// through the singleflight memo. Admission is bounded: when every
// worker is busy and the queue is full, new computes are shed with
// 503 + Retry-After instead of queueing without limit. Above the disk
// store sits an in-memory LRU tier holding encoded response bytes, so
// hot artifacts are served without disk I/O.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"tdcache/internal/artifact"
	"tdcache/internal/experiments"
	"tdcache/internal/sweep"
)

// Options configures a Server.
type Options struct {
	// Store is the backing artifact store (required).
	Store *artifact.Store
	// Full are the parameters used when quick=false (default
	// experiments.DefaultParams()).
	Full *experiments.Params
	// Quick are the parameters used when quick=true (default
	// experiments.QuickParams()).
	Quick *experiments.Params
	// Workers is the compute shard width: how many experiment builds may
	// simulate concurrently. Each worker owns a Params clone with its
	// own sweep.Pool of Params.Parallel width, so total CPU demand is
	// roughly Workers × Parallel. Default min(GOMAXPROCS, 4); values
	// below 1 select the default.
	Workers int
	// MaxInflight bounds admitted computes (queued + running) across
	// all workers. Requests arriving beyond the bound are shed with
	// 503 + Retry-After rather than queued without limit. Default
	// 4 × Workers; values below Workers are raised to Workers.
	MaxInflight int
	// CacheBytes is the in-memory hot-tier budget for encoded response
	// bytes. 0 selects the 64 MiB default; negative disables the tier.
	CacheBytes int64
}

// defaultCacheBytes is the hot-tier budget when Options.CacheBytes is 0.
const defaultCacheBytes = 64 << 20

// computeKey identifies one cacheable computation.
type computeKey struct {
	id    string
	quick bool
}

// computeResult is the memoized outcome: the store manifest of the
// computed (or found) artifact. Successful results are pure functions
// of the key and stay memoized forever; error outcomes (including
// sheds) are evicted by the handler, because they are transient — the
// pool drains, the disk recovers — and must be retried by the next
// request.
type computeResult struct {
	meta *artifact.Meta
	err  error
}

// computeJob is one queued simulation request; the worker that claims
// it delivers the outcome on done (buffered, never blocks the worker).
type computeJob struct {
	key  computeKey
	done chan computeResult
}

// computeWorker is one compute shard: a worker goroutine's private
// parameter sets. Each holds independent clones of the server's
// configured Params, so concurrent builds never share a sweep.Pool or
// memo state.
type computeWorker struct {
	id    int
	full  *experiments.Params
	quick *experiments.Params
}

// params selects the worker's parameter set for a request class.
func (w *computeWorker) params(quick bool) *experiments.Params {
	if quick {
		return w.quick
	}
	return w.full
}

// errBusy marks a shed compute: every worker busy, queue full.
var errBusy = errors.New("serve: compute capacity saturated, retry later")

// errClosed marks a compute rejected because the server is shutting
// down.
var errClosed = errors.New("serve: server closed")

// Server serves experiment artifacts through the store.
type Server struct {
	store *artifact.Store
	// hot is the in-memory LRU tier over the store; nil when disabled.
	hot *artifact.LRU

	// memo deduplicates concurrent requests for the same artifact
	// (singleflight): only the first caller dispatches a compute, the
	// rest block on the same entry.
	memo sweep.Memo[computeKey, computeResult]

	// jobs carries admitted computes to the workers. Its capacity equals
	// maxInflight, and the inflight gate admits at most maxInflight
	// jobs, so sends never block.
	jobs        chan computeJob
	maxInflight int64
	inflight    atomic.Int64
	workers     []*computeWorker
	wg          sync.WaitGroup
	// closeMu guards closed against racing submissions; submissions take
	// the read side, Close the write side.
	closeMu sync.RWMutex
	closed  bool

	// computes counts actual simulations (store misses); tests assert
	// repeated and restarted servers serve from the store instead.
	computes atomic.Uint64
	// sheds counts computes rejected by the admission bound.
	sheds atomic.Uint64

	// listing and listingETag are the registry listing, encoded once at
	// construction: the registry is static, so re-encoding it per
	// request (and discarding encoder errors mid-response) was waste.
	listing     []byte
	listingETag string

	// testComputeStart/End instrument the simulation boundaries for
	// concurrency tests; nil outside tests. Workers observe writes made
	// before the triggering request via the jobs channel happens-before.
	testComputeStart func(key computeKey, worker int)
	testComputeEnd   func(key computeKey, worker int)

	mux *http.ServeMux
}

// listEntry is one row of the registry listing.
type listEntry struct {
	ID    string        `json:"id"`
	Title string        `json:"title"`
	Kind  artifact.Kind `json:"kind"`
}

// encodeListing renders the static registry listing exactly as the old
// per-request json.Encoder did (two-space indent, trailing newline).
func encodeListing() ([]byte, error) {
	entries := make([]listEntry, 0, len(experiments.Specs))
	for _, sp := range experiments.Specs {
		entries = append(entries, listEntry{ID: sp.ID, Title: sp.Title, Kind: sp.Kind})
	}
	b, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("serve: encode listing: %w", err)
	}
	return append(b, '\n'), nil
}

// New builds a Server over the store and starts its compute workers;
// Close releases them.
func New(o Options) (*Server, error) {
	if o.Store == nil {
		return nil, errors.New("serve: Options.Store is required")
	}
	full := o.Full
	if full == nil {
		full = experiments.DefaultParams()
	}
	quick := o.Quick
	if quick == nil {
		quick = experiments.QuickParams()
	}
	workers := o.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 4 {
			workers = 4
		}
	}
	maxInflight := o.MaxInflight
	if maxInflight < 1 {
		maxInflight = 4 * workers
	}
	if maxInflight < workers {
		maxInflight = workers
	}

	listing, err := encodeListing()
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(listing)
	s := &Server{
		store:       o.Store,
		jobs:        make(chan computeJob, maxInflight),
		maxInflight: int64(maxInflight),
		listing:     listing,
		listingETag: `"` + hex.EncodeToString(sum[:16]) + `"`,
	}
	switch {
	case o.CacheBytes > 0:
		s.hot = artifact.NewLRU(o.CacheBytes)
	case o.CacheBytes == 0:
		s.hot = artifact.NewLRU(defaultCacheBytes)
	}

	s.workers = make([]*computeWorker, workers)
	for i := range s.workers {
		s.workers[i] = &computeWorker{id: i, full: full.Clone(), quick: quick.Clone()}
	}
	s.wg.Add(workers)
	for _, w := range s.workers {
		go s.runWorker(w)
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /v1/experiments", s.handleList)
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.handleGet)
	return s, nil
}

// Close stops accepting new computes, drains the queued ones, and waits
// for the workers to exit. In-flight HTTP handlers waiting on queued
// jobs still receive their results.
func (s *Server) Close() {
	s.closeMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.jobs)
	}
	s.closeMu.Unlock()
	s.wg.Wait()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Computes reports how many artifacts were actually simulated (as
// opposed to served from the store).
func (s *Server) Computes() uint64 { return s.computes.Load() }

// Sheds reports how many computes were rejected by the admission bound.
func (s *Server) Sheds() uint64 { return s.sheds.Load() }

// Workers reports the compute shard width.
func (s *Server) Workers() int { return len(s.workers) }

// CacheStats snapshots the hot tier's counters (zero value when the
// tier is disabled).
func (s *Server) CacheStats() artifact.CacheStats {
	if s.hot == nil {
		return artifact.CacheStats{}
	}
	return s.hot.Stats()
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("ETag", s.listingETag)
	if etagMatch(r.Header.Get("If-None-Match"), s.listingETag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeBody(w, s.listing)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := experiments.Lookup(id); !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown experiment %q", id))
		return
	}
	format := artifact.FormatText
	if q := r.URL.Query().Get("format"); q != "" {
		var err error
		if format, err = artifact.ParseFormat(q); err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	quick := false
	if q := r.URL.Query().Get("quick"); q != "" {
		var err error
		if quick, err = strconv.ParseBool(q); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad quick value %q", q))
			return
		}
	}

	key := computeKey{id: id, quick: quick}
	res := s.memo.Do(key, func() computeResult {
		return s.dispatch(key)
	})
	if res.err != nil {
		// Outcomes other than a committed manifest are not pure functions
		// of the key — saturation passes, store I/O recovers — so evict
		// the entry and let the next request retry.
		s.memo.Forget(key)
		switch {
		case errors.Is(res.err, errBusy):
			// Shed: tell the client when to come back. One second is the
			// scale of a quick simulation; saturated full sweeps take
			// longer, but the client will just be told again.
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, res.err.Error())
		case errors.Is(res.err, errClosed):
			writeErr(w, http.StatusServiceUnavailable, res.err.Error())
		default:
			writeErr(w, http.StatusInternalServerError, res.err.Error())
		}
		return
	}

	etag := `"` + res.meta.ArtifactDigest + `"`
	w.Header().Set("ETag", etag)
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	ck := artifact.CacheKey{ID: id, ParamsDigest: res.meta.ParamsDigest, Format: format}
	var data []byte
	if s.hot != nil {
		data, _, _ = s.hot.Get(ck)
	}
	if data == nil {
		var err error
		data, _, err = s.store.ReadFormat(id, res.meta.ParamsDigest, format)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err.Error())
			return
		}
		if s.hot != nil {
			s.hot.Put(ck, data, res.meta)
		}
	}
	w.Header().Set("Content-Type", format.ContentType())
	writeBody(w, data)
}

// dispatch admits one compute into the worker shard and waits for its
// result. When the admission bound is hit the compute is shed (errBusy)
// without blocking; memo singleflight guarantees at most one dispatch
// per key is in flight.
func (s *Server) dispatch(key computeKey) computeResult {
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return computeResult{err: errClosed}
	}
	if s.inflight.Add(1) > s.maxInflight {
		s.inflight.Add(-1)
		s.closeMu.RUnlock()
		s.sheds.Add(1)
		return computeResult{err: errBusy}
	}
	done := make(chan computeResult, 1)
	// Never blocks: cap(jobs) == maxInflight and the gate above admits
	// at most maxInflight outstanding jobs.
	s.jobs <- computeJob{key: key, done: done}
	s.closeMu.RUnlock()
	return <-done
}

// runWorker is one compute shard's loop: claim admitted jobs until
// Close drains the queue.
func (s *Server) runWorker(w *computeWorker) {
	defer s.wg.Done()
	for job := range s.jobs {
		res := s.compute(w, job.key)
		s.inflight.Add(-1)
		// done has capacity 1 and exactly one worker ever sends on it;
		// proven drained under -race by TestCloseDrainsQueuedJobs.
		job.done <- res
	}
}

// compute resolves one artifact on a worker: store hit if a previous
// process (or request) already produced it, otherwise simulate on the
// worker's private Params and persist. No locking: the Params clone is
// owned by this worker, and Digest reads are race-free by the
// immutability contract.
func (s *Server) compute(w *computeWorker, key computeKey) computeResult {
	p := w.params(key.quick)
	digest := experiments.Digest(p)
	_, meta, err := s.store.Get(key.id, digest)
	if err == nil {
		return computeResult{meta: meta}
	}
	if !errors.Is(err, artifact.ErrMiss) {
		return computeResult{err: err}
	}
	s.computes.Add(1)
	if s.testComputeStart != nil {
		s.testComputeStart(key, w.id)
	}
	a, err := experiments.Build(key.id, p)
	if s.testComputeEnd != nil {
		s.testComputeEnd(key, w.id)
	}
	if err != nil {
		return computeResult{err: err}
	}
	meta, err = s.store.Put(a)
	if err != nil {
		return computeResult{err: err}
	}
	return computeResult{meta: meta}
}

// etagMatch reports whether an If-None-Match header value names etag.
// Per RFC 9110 §8.8.3 the header is a comma-separated list of entity
// tags (or "*"), and If-None-Match uses weak comparison, so a W/ prefix
// on a list entry is ignored. Entity tags are opaque quoted strings
// that may themselves contain commas, so the list is scanned tag by tag
// rather than split on commas.
func etagMatch(header, etag string) bool {
	rest := header
	for {
		rest = strings.TrimLeft(rest, " \t,")
		if rest == "" {
			return false
		}
		if rest[0] == '*' {
			return true
		}
		tag, remainder, ok := scanETag(rest)
		if !ok {
			// Malformed from here on; no further tag can be parsed out.
			return false
		}
		if strings.TrimPrefix(tag, "W/") == etag {
			return true
		}
		rest = remainder
	}
}

// scanETag parses one entity-tag ([W/]"opaque") from the start of s,
// returning it and the unconsumed remainder. Opaque-tag bytes are
// 0x21, 0x23-0x7E, and obs-text per RFC 9110 §8.8.3 — no escapes, so a
// quote always ends the tag.
func scanETag(s string) (tag, rest string, ok bool) {
	start := 0
	if strings.HasPrefix(s, "W/") {
		start = 2
	}
	if len(s) <= start || s[start] != '"' {
		return "", "", false
	}
	for i := start + 1; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			return s[:i+1], s[i+1:], true
		case c == 0x21 || (c >= 0x23 && c <= 0x7E) || c >= 0x80:
			// valid opaque-tag byte
		default:
			return "", "", false
		}
	}
	return "", "", false
}

// writeErr emits a JSON error body: the package's single
// error-to-status mapping point — every failure response goes through
// here so each failure class maps to exactly one status.
//
//errflow:status-mapper
func writeErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg}) //lint:allow errflow a client gone mid-error-body has no one left to tell; TestWriteErrClientGone pins it
}

// writeBody writes a fully-prepared response body after the headers
// are out; at that point a write failure means the client hung up.
func writeBody(w http.ResponseWriter, data []byte) {
	_, _ = w.Write(data) //lint:allow errflow a client gone mid-body has no one left to tell; TestWriteBodyClientGone pins it
}
