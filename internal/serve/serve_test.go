package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdcache/internal/artifact"
	"tdcache/internal/experiments"
)

// tiny returns reduced parameters so handler tests simulate in
// milliseconds. Both Full and Quick slots get tiny params; the quick
// set is further reduced so the two digests differ.
func tiny() *experiments.Params {
	p := experiments.QuickParams()
	p.Chips = 4
	p.DistChips = 6
	p.Instructions = 3000
	p.Benchmarks = []string{"gzip", "mcf"}
	return p
}

func tinier() *experiments.Params {
	p := tiny()
	p.Instructions = 2000
	return p
}

func newTestServer(t *testing.T, dir string) *Server {
	t.Helper()
	return newTestServerOpts(t, dir, Options{})
}

// newTestServerOpts builds a server over dir with tiny parameters,
// honoring any worker/admission/cache overrides in o.
func newTestServerOpts(t *testing.T, dir string, o Options) *Server {
	t.Helper()
	st, err := artifact.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	o.Store = st
	if o.Full == nil {
		o.Full = tiny()
	}
	if o.Quick == nil {
		o.Quick = tinier()
	}
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func get(s *Server, path string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestListExperiments(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	rec := get(s, "/v1/experiments", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var entries []struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		Kind  string `json:"kind"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(experiments.Specs) {
		t.Fatalf("listed %d experiments, want %d", len(entries), len(experiments.Specs))
	}
	for i, sp := range experiments.Specs {
		if entries[i].ID != sp.ID || entries[i].Title != sp.Title || entries[i].Kind != string(sp.Kind) {
			t.Errorf("entry %d = %+v, want %v", i, entries[i], sp)
		}
	}
}

// TestServeFromStore is the acceptance assertion: the first request
// simulates, every later request — including from a brand-new server
// process over the same store directory — is served from disk.
func TestServeFromStore(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir)
	rec := get(s, "/v1/experiments/tab1?format=json", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	if got := s.Computes(); got != 1 {
		t.Fatalf("computes after first request = %d, want 1", got)
	}
	rec2 := get(s, "/v1/experiments/tab1?format=json", nil)
	if rec2.Code != http.StatusOK || s.Computes() != 1 {
		t.Fatalf("second request recomputed (computes = %d)", s.Computes())
	}
	if rec.Body.String() != rec2.Body.String() {
		t.Error("repeated request returned different bytes")
	}

	// A fresh server over the same store must not re-simulate.
	restarted := newTestServer(t, dir)
	rec3 := get(restarted, "/v1/experiments/tab1?format=json", nil)
	if rec3.Code != http.StatusOK {
		t.Fatalf("status after restart = %d", rec3.Code)
	}
	if got := restarted.Computes(); got != 0 {
		t.Errorf("restarted server simulated %d times, want 0 (store hit)", got)
	}
	if rec3.Body.String() != rec.Body.String() {
		t.Error("restarted server returned different bytes")
	}
}

func TestETagRevalidation(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	rec := get(s, "/v1/experiments/tab2", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	etag := rec.Header().Get("ETag")
	if len(etag) < 4 || etag[0] != '"' {
		t.Fatalf("ETag = %q, want quoted digest", etag)
	}
	rec304 := get(s, "/v1/experiments/tab2", map[string]string{"If-None-Match": etag})
	if rec304.Code != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304", rec304.Code)
	}
	if rec304.Body.Len() != 0 {
		t.Error("304 response has a body")
	}
	stale := get(s, "/v1/experiments/tab2", map[string]string{"If-None-Match": `"0000"`})
	if stale.Code != http.StatusOK {
		t.Errorf("stale ETag status = %d, want 200", stale.Code)
	}

	// RFC 9110 §8.8.3: the header may list several entity tags, each
	// possibly weak; If-None-Match uses weak comparison, so the current
	// tag appearing anywhere in the list (with or without W/) is a 304.
	for _, hdr := range []string{
		`"0000", ` + etag,
		`"0000" , W/` + etag + `, "1111"`,
		"W/" + etag,
		"*",
	} {
		rec := get(s, "/v1/experiments/tab2", map[string]string{"If-None-Match": hdr})
		if rec.Code != http.StatusNotModified {
			t.Errorf("If-None-Match %q status = %d, want 304", hdr, rec.Code)
		}
	}
	miss := get(s, "/v1/experiments/tab2", map[string]string{"If-None-Match": `"0000", W/"1111"`})
	if miss.Code != http.StatusOK {
		t.Errorf("no-match list status = %d, want 200", miss.Code)
	}
}

func TestFormatsAndContentTypes(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	for format, want := range map[string]string{
		"text": "text/plain; charset=utf-8",
		"json": "application/json",
		"csv":  "text/csv; charset=utf-8",
	} {
		rec := get(s, "/v1/experiments/tab1?format="+format, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d", format, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != want {
			t.Errorf("%s: content type = %q, want %q", format, ct, want)
		}
		if rec.Body.Len() == 0 {
			t.Errorf("%s: empty body", format)
		}
	}
	// All formats share one compute: the store fans the encodings out.
	if got := s.Computes(); got != 1 {
		t.Errorf("computes = %d, want 1 across all formats", got)
	}
}

func TestQuickSelectsSeparateArtifact(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	full := get(s, "/v1/experiments/fig4", nil)
	quick := get(s, "/v1/experiments/fig4?quick=true", nil)
	if full.Code != http.StatusOK || quick.Code != http.StatusOK {
		t.Fatalf("status = %d / %d", full.Code, quick.Code)
	}
	if s.Computes() != 2 {
		t.Errorf("computes = %d, want 2 (distinct parameter digests)", s.Computes())
	}
	if full.Header().Get("ETag") == quick.Header().Get("ETag") {
		t.Error("full and quick artifacts share an ETag")
	}
}

func TestErrorPaths(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	cases := []struct {
		path string
		code int
	}{
		{"/v1/experiments/nonesuch", http.StatusNotFound},
		{"/v1/experiments/tab1?format=yaml", http.StatusBadRequest},
		{"/v1/experiments/tab1?quick=perhaps", http.StatusBadRequest},
	}
	for _, c := range cases {
		rec := get(s, c.path, nil)
		if rec.Code != c.code {
			t.Errorf("%s: status = %d, want %d", c.path, rec.Code, c.code)
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
			t.Errorf("%s: error body = %q", c.path, rec.Body)
		}
	}
}

// TestStoreErrorNotMemoized asserts that a transient store I/O failure
// is not served forever: once the store recovers, the next request for
// the same key recomputes instead of replaying the memoized error.
func TestStoreErrorNotMemoized(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir)

	// Squat the experiment's store path with a regular file: every read
	// and write under dir/tab1/... now fails with ENOTDIR, which is a
	// store I/O error, not a miss.
	block := filepath.Join(dir, "tab1")
	if err := os.WriteFile(block, []byte("squatter"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := get(s, "/v1/experiments/tab1", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status with broken store = %d, want 500", rec.Code)
	}

	// Store recovers; the error must not have been memoized.
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	rec2 := get(s, "/v1/experiments/tab1", nil)
	if rec2.Code != http.StatusOK {
		t.Fatalf("status after store recovered = %d, want 200 (error was memoized?)", rec2.Code)
	}
	if rec2.Body.Len() == 0 {
		t.Error("recovered response has empty body")
	}
}

// TestConcurrentRequests exercises the singleflight and the worker
// shard under the race detector: many clients, same and different IDs,
// one simulation per artifact. The ID set deliberately includes tab3
// and fig12pts, the multi-node sweeps that used to mutate a shared
// Params' Tech in place — with the WithTech immutability contract they
// build concurrently on independent workers, and only -race proves it.
func TestConcurrentRequests(t *testing.T) {
	// MaxInflight comfortably exceeds the distinct-key count so no
	// request sheds regardless of the host's core count (the shed path
	// has its own test).
	s := newTestServerOpts(t, t.TempDir(), Options{Workers: 4, MaxInflight: 32})
	ts := httptest.NewServer(s)
	defer ts.Close()

	ids := []string{"tab1", "tab2", "fig4", "tab3", "fig12pts"}
	var wg sync.WaitGroup
	errs := make(chan error, len(ids)*8)
	for i := 0; i < 8; i++ {
		for _, id := range ids {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				resp, err := http.Get(ts.URL + "/v1/experiments/" + id + "?format=json")
				if err != nil {
					errs <- err
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				if cerr := resp.Body.Close(); cerr != nil && err == nil {
					err = cerr
				}
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", id, resp.StatusCode)
				}
			}(id)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.Computes(); got != uint64(len(ids)) {
		t.Errorf("computes = %d, want %d (one per artifact)", got, len(ids))
	}
}

// TestListingETagRevalidation covers the precomputed registry listing:
// a stable ETag, 304 on If-None-Match, and byte-identical bodies across
// requests without re-encoding.
func TestListingETagRevalidation(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	rec := get(s, "/v1/experiments", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	etag := rec.Header().Get("ETag")
	if len(etag) < 4 || etag[0] != '"' {
		t.Fatalf("listing ETag = %q, want quoted digest", etag)
	}
	rec304 := get(s, "/v1/experiments", map[string]string{"If-None-Match": etag})
	if rec304.Code != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304", rec304.Code)
	}
	if rec304.Body.Len() != 0 {
		t.Error("304 listing response has a body")
	}
	again := get(s, "/v1/experiments", nil)
	if again.Body.String() != rec.Body.String() || again.Header().Get("ETag") != etag {
		t.Error("listing not stable across requests")
	}
}

// TestConcurrentComputeOverlap is the acceptance assertion for the
// worker shard: two different experiment IDs requested concurrently
// must overlap their simulations. Instrumented hooks form a barrier —
// each compute blocks at its start until the other has also started, so
// the test deadlocks (and times out) under any serialized design.
func TestConcurrentComputeOverlap(t *testing.T) {
	s := newTestServerOpts(t, t.TempDir(), Options{Workers: 2, MaxInflight: 4})
	var started sync.WaitGroup
	started.Add(2)
	barrier := make(chan struct{})
	var once sync.Once
	s.testComputeStart = func(key computeKey, worker int) {
		started.Done()
		<-barrier
	}
	go func() {
		started.Wait() // both simulations have started: they overlap
		once.Do(func() { close(barrier) })
	}()

	results := make(chan int, 2)
	for _, id := range []string{"tab1", "tab2"} {
		go func(id string) {
			rec := get(s, "/v1/experiments/"+id, nil)
			results <- rec.Code
		}(id)
	}
	for i := 0; i < 2; i++ {
		select {
		case code := <-results:
			if code != http.StatusOK {
				t.Fatalf("status = %d", code)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("computes never overlapped: barrier not released")
		}
	}
	if got := s.Computes(); got != 2 {
		t.Errorf("computes = %d, want 2", got)
	}
}

// TestLoadShed covers the bounded-admission path: with one worker and
// an inflight bound of 1, a second distinct compute arriving while the
// first is pinned inside the simulator is shed with 503 + Retry-After —
// it must not queue, deadlock, or get memoized as a permanent failure.
func TestLoadShed(t *testing.T) {
	s := newTestServerOpts(t, t.TempDir(), Options{Workers: 1, MaxInflight: 1})
	release := make(chan struct{})
	pinned := make(chan struct{}, 8)
	s.testComputeStart = func(key computeKey, worker int) {
		pinned <- struct{}{}
		<-release
	}

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- get(s, "/v1/experiments/tab1", nil) }()
	select {
	case <-pinned: // worker is now occupied
	case <-time.After(60 * time.Second):
		t.Fatal("first compute never started")
	}

	shed := get(s, "/v1/experiments/tab2", nil)
	if shed.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated status = %d, want 503", shed.Code)
	}
	if ra := shed.Header().Get("Retry-After"); ra == "" {
		t.Error("503 missing Retry-After")
	}
	if got := s.Sheds(); got != 1 {
		t.Errorf("sheds = %d, want 1", got)
	}

	close(release)
	if rec := <-first; rec.Code != http.StatusOK {
		t.Fatalf("pinned request status = %d", rec.Code)
	}
	// The shed outcome must not be memoized: with capacity free again,
	// the same key computes successfully.
	s.testComputeStart = nil
	retry := get(s, "/v1/experiments/tab2", nil)
	if retry.Code != http.StatusOK {
		t.Fatalf("retry after shed = %d, want 200", retry.Code)
	}
}

// TestHotTierServesWithoutDisk proves the LRU tier: once a response has
// been served, deleting the entire store entry from disk must not stop
// identical requests from being answered — the bytes come from memory.
func TestHotTierServesWithoutDisk(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir)
	rec := get(s, "/v1/experiments/tab1?format=json", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	// Wipe the artifact's disk entry entirely.
	if err := os.RemoveAll(filepath.Join(dir, "tab1")); err != nil {
		t.Fatal(err)
	}
	rec2 := get(s, "/v1/experiments/tab1?format=json", nil)
	if rec2.Code != http.StatusOK {
		t.Fatalf("status after disk wipe = %d, want 200 (hot tier)", rec2.Code)
	}
	if rec2.Body.String() != rec.Body.String() {
		t.Error("hot-tier bytes differ from disk bytes")
	}
	st := s.CacheStats()
	if st.Hits == 0 {
		t.Errorf("cache stats = %+v, want at least one hit", st)
	}
	// A format not yet cached must miss (and fail, since disk is gone).
	recCSV := get(s, "/v1/experiments/tab1?format=csv", nil)
	if recCSV.Code != http.StatusInternalServerError {
		t.Errorf("uncached format after disk wipe = %d, want 500", recCSV.Code)
	}
}

// TestHotTierDisabled covers CacheBytes < 0: every read goes to disk.
func TestHotTierDisabled(t *testing.T) {
	dir := t.TempDir()
	s := newTestServerOpts(t, dir, Options{CacheBytes: -1})
	rec := get(s, "/v1/experiments/tab1?format=json", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if err := os.RemoveAll(filepath.Join(dir, "tab1")); err != nil {
		t.Fatal(err)
	}
	rec2 := get(s, "/v1/experiments/tab1?format=json", nil)
	if rec2.Code != http.StatusInternalServerError {
		t.Errorf("status with tier disabled and disk wiped = %d, want 500", rec2.Code)
	}
}

// TestConcurrentMatchesSerial is the byte-identity acceptance check:
// artifacts computed through a multi-worker server are byte-identical
// to those computed through a single-worker server over a separate
// store.
func TestConcurrentMatchesSerial(t *testing.T) {
	serial := newTestServerOpts(t, t.TempDir(), Options{Workers: 1, MaxInflight: 8})
	parallel := newTestServerOpts(t, t.TempDir(), Options{Workers: 4, MaxInflight: 16})

	ids := []string{"tab1", "tab2", "fig4"}
	type answer struct {
		id   string
		body string
		etag string
	}
	par := make(chan answer, len(ids))
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			rec := get(parallel, "/v1/experiments/"+id+"?format=json", nil)
			par <- answer{id, rec.Body.String(), rec.Header().Get("ETag")}
		}(id)
	}
	wg.Wait()
	close(par)
	for a := range par {
		rec := get(serial, "/v1/experiments/"+a.id+"?format=json", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: serial status = %d", a.id, rec.Code)
		}
		if rec.Body.String() != a.body {
			t.Errorf("%s: concurrent bytes differ from serial", a.id)
		}
		if rec.Header().Get("ETag") != a.etag {
			t.Errorf("%s: concurrent ETag differs from serial", a.id)
		}
	}
}

// etagCases are entity-tag list edge cases from RFC 9110 §8.8.3, each
// against the tag etagCase: opaque tags may contain commas, weak tags
// may be surrounded by list whitespace, and malformed input must not
// match. FuzzETagMatch starts from them.
const etagCase = `"abc"`

var etagCases = []struct {
	header string
	want   bool
}{
	{"", false},
	{"   ", false},
	{`"abc"`, true},
	{`W/"abc"`, true},
	{"*", true},
	{`"xyz", *`, true}, // * mixed into a list still matches
	{`"xyz"`, false},
	// Opaque tags containing commas must not be split apart: the
	// comma inside "x,abc" is tag content, not a list separator.
	{`"x,abc"`, false},
	{`"x,abc", "abc"`, true},
	{`"abc,y"`, false},
	// W/ entries with surrounding list whitespace.
	{`  W/"abc"  `, true},
	{`"one" ,	W/"abc" , "two"`, true},
	{`"one", W/"two"`, false},
	// Malformed: unclosed quote, bare token, stray weak prefix.
	{`"abc`, false},
	{`abc`, false},
	{`W/abc`, false},
	{`W/`, false},
	// Malformed prefix hides a later valid tag: scanning stops at
	// the first unparseable element (conservative: no match).
	{`abc, "abc"`, false},
	// Control byte inside a tag is invalid.
	{"\"a\x07bc\"", false},
}

// TestEtagMatch pins the entity-tag list scanner against etagCases.
func TestEtagMatch(t *testing.T) {
	for _, c := range etagCases {
		if got := etagMatch(c.header, etagCase); got != c.want {
			t.Errorf("etagMatch(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// FuzzETagMatch checks the If-None-Match scanner on any header: it
// never panics, "*" matches every tag, a tag scanETag parses is a
// prefix of its input with the remainder after it, and any tag made of
// valid opaque-tag bytes is found in a list that carries it weak
// between two other tags.
func FuzzETagMatch(f *testing.F) {
	for _, c := range etagCases {
		f.Add(c.header, "abc", "x,y", "")
	}
	f.Fuzz(func(t *testing.T, header, opaque, x, y string) {
		etag := `"` + opaqueBytes(opaque) + `"`
		etagMatch(header, etag)
		if !etagMatch("*", etag) {
			t.Fatalf("* does not match %q", etag)
		}
		if tag, rest, ok := scanETag(header); ok && tag+rest != header {
			t.Fatalf("scanETag(%q) = %q, %q: not a split of its input", header, tag, rest)
		}
		list := `"` + opaqueBytes(x) + `", W/` + etag + `, "` + opaqueBytes(y) + `"`
		if !etagMatch(list, etag) {
			t.Fatalf("etagMatch(%q, %q) = false, want true", list, etag)
		}
	})
}

// opaqueBytes keeps the bytes of s that may appear inside an entity
// tag's quotes: 0x21, 0x23-0x7E and obs-text (0x80 and up).
func opaqueBytes(s string) string {
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == 0x21 || (c >= 0x23 && c <= 0x7E) || c >= 0x80 {
			b = append(b, c)
		}
	}
	return string(b)
}

// TestCloseDrainsQueuedJobs: jobs admitted before Close still complete,
// and requests arriving after Close are refused rather than hung.
func TestCloseDrainsQueuedJobs(t *testing.T) {
	st, err := artifact.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Store: st, Full: tiny(), Quick: tinier(), Workers: 1, MaxInflight: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec := get(s, "/v1/experiments/tab1", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status before close = %d", rec.Code)
	}
	s.Close()
	s.Close() // idempotent
	rec2 := get(s, "/v1/experiments/tab2", nil)
	if rec2.Code != http.StatusServiceUnavailable {
		t.Errorf("status after close = %d, want 503", rec2.Code)
	}
}

// TestCloseJoinsWorkers: Close waits for the workers. A compute still
// running inside the simulator when Close is called must finish, and
// its request must be answered, before Close returns.
func TestCloseJoinsWorkers(t *testing.T) {
	st, err := artifact.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Store: st, Full: tiny(), Quick: tinier(), Workers: 1, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	pinned := make(chan struct{})
	release := make(chan struct{})
	var ended atomic.Bool
	s.testComputeStart = func(computeKey, int) {
		close(pinned)
		<-release
	}
	s.testComputeEnd = func(computeKey, int) { ended.Store(true) }

	first := make(chan int, 1)
	go func() { first <- get(s, "/v1/experiments/tab1", nil).Code }()
	select {
	case <-pinned:
	case <-time.After(60 * time.Second):
		t.Fatal("compute never started")
	}

	// endedAtReturn reports whether the compute had finished when
	// Close returned.
	endedAtReturn := make(chan bool, 1)
	go func() {
		s.Close()
		endedAtReturn <- ended.Load()
	}()
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
		s.closeMu.RLock()
		closed := s.closed
		s.closeMu.RUnlock()
		if closed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Close never marked the server closed")
		}
	}
	close(release)

	select {
	case ok := <-endedAtReturn:
		if !ok {
			t.Error("Close returned before the in-flight compute finished")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Close never returned")
	}
	if code := <-first; code != http.StatusOK {
		t.Errorf("pinned request status = %d, want 200", code)
	}
}

// TestCloseRacesRequests: Close lands among concurrent cold requests.
// Each request is either served or refused with 503, never hung or
// failed. The staggered starts put two requests ahead of Close and two
// after it. Sleeps, not channels, stagger them: a sleep orders nothing
// for the race detector, so the late requests reach dispatch joined to
// Close by closeMu alone, and under -race an unlocked read of closed
// there is reported. The outcome does not depend on the timing.
func TestCloseRacesRequests(t *testing.T) {
	s := newTestServerOpts(t, t.TempDir(), Options{Workers: 2, MaxInflight: 4})
	ids := []string{"tab1", "tab2", "fig1", "fig4"}
	start := make(chan struct{})
	codes := make(chan int, len(ids))
	for i, id := range ids {
		go func(id string, delay time.Duration) {
			<-start
			time.Sleep(delay)
			codes <- get(s, "/v1/experiments/"+id, nil).Code
		}(id, time.Duration(i/2)*20*time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		<-start
		time.Sleep(5 * time.Millisecond)
		s.Close()
		close(closed)
	}()
	close(start)

	for range ids {
		select {
		case code := <-codes:
			if code != http.StatusOK && code != http.StatusServiceUnavailable {
				t.Errorf("status = %d, want 200 or 503", code)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("a request racing Close never returned")
		}
	}
	select {
	case <-closed:
	case <-time.After(60 * time.Second):
		t.Fatal("Close never returned")
	}
}

// brokenWriter is a ResponseWriter whose client hung up: every Write
// fails. Headers and status still record normally.
type brokenWriter struct {
	header http.Header
	code   int
	writes int
}

func (b *brokenWriter) Header() http.Header {
	if b.header == nil {
		b.header = make(http.Header)
	}
	return b.header
}

func (b *brokenWriter) WriteHeader(code int) { b.code = code }

func (b *brokenWriter) Write([]byte) (int, error) {
	b.writes++
	return 0, fmt.Errorf("write tcp: broken pipe")
}

// TestWriteErrClientGone is the proof test behind writeErr's errflow
// suppression: when the client disconnects before the error body goes
// out, writeErr must not panic and must still have committed the
// status code and content type — the parts the server log and any
// middleware observe.
func TestWriteErrClientGone(t *testing.T) {
	w := &brokenWriter{}
	writeErr(w, http.StatusNotFound, "no such experiment")
	if w.code != http.StatusNotFound {
		t.Errorf("status = %d, want 404", w.code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	if w.writes == 0 {
		t.Error("writeErr never attempted the body write")
	}
}

// TestWriteBodyClientGone is the proof test behind writeBody's errflow
// suppression: a failed body write to a gone client must not panic —
// there is no one left to report the failure to.
func TestWriteBodyClientGone(t *testing.T) {
	w := &brokenWriter{}
	writeBody(w, []byte("payload"))
	if w.writes != 1 {
		t.Errorf("writeBody attempted %d writes, want 1", w.writes)
	}
}
