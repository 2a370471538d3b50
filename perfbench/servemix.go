package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tdcache/internal/artifact"
	"tdcache/internal/experiments"
	"tdcache/internal/serve"
	"tdcache/internal/stats"
)

// Request classes of the serve-mix schedule.
const (
	classHot        = "hot"        // GET of a key this server already served: LRU hit
	classRevalidate = "revalidate" // If-None-Match with the ETag first served: 304
	classDisk       = "disk"       // first GET of a key after a restart: store read
	classCold       = "cold"       // first GET on a server over an empty store: Build + Put
)

var (
	classes = []string{classHot, classRevalidate, classDisk, classCold}
	formats = []artifact.Format{artifact.FormatText, artifact.FormatJSON, artifact.FormatCSV}
	// cheapIDs are the ids a cold request builds: each takes
	// milliseconds at the reduced scale, so a run holds hundreds.
	cheapIDs = []string{"tab1", "tab2", "fig4", "sec4.1"}
)

// Per client and block, the schedule holds diskPerClient first reads of
// a key and repeatsPerKey repeats of each, split between hot and
// revalidate requests; every coldEvery-th block adds coldPerClient
// builds.
//
// The first-read : repeat shape is taken from the repository's own
// serve load, BENCH_serve.json's serve-load (cmd/tdcache-loadbench):
// 480 requests over 16 keys, 16 misses and 464 hits, so each key is
// read once and repeated 29 times. A block is that load at two clients:
// 2 × (8 + 8 × 29) = 480 requests over 16 keys. The split of repeats
// into hot and revalidate, and the share of cold requests, have no
// source in the repository: they are assumptions (README.md).
const (
	// mixClients is the number of closed-loop clients, one per CPU of
	// the two-core reference host; with two, the cold ids split evenly.
	mixClients    = 2
	diskPerClient = 8
	repeatsPerKey = 29
	// Three hot requests to one revalidation, an assumption.
	revalidatePerClient = diskPerClient * repeatsPerKey / 4
	hotPerClient        = diskPerClient*repeatsPerKey - revalidatePerClient
	coldPerClient       = 2
	// coldEvery spaces the blocks with cold requests, an assumption
	// bounded by disk use: each cold request writes a store entry,
	// which the run keeps. One cold block in 8 gives a run of 15 s a
	// few hundred cold requests, so the cold p90 has tens beyond it.
	coldEvery = 8
	// classHeader tells the traced router which class a request is.
	classHeader = "X-Perfbench-Class"
)

// serveSetup is the pre-filled store and the bytes every response is
// checked against.
type serveSetup struct {
	store *artifact.Store
	// want[id][format] is a direct artifact.Encode of the artifact.
	want map[string]map[artifact.Format][]byte
	// etag[id] is the strong ETag the server derives from the digest.
	etag map[string]string
	// built keeps the pre-fill artifacts for the artifact-layer timings.
	built []artifact.Artifact
}

// setupServe builds every registered id at the reduced scale into a
// fresh store and encodes the expected response bodies.
func setupServe(dir string, ps paramSet, seed uint64) (serveSetup, error) {
	s := serveSetup{
		want: map[string]map[artifact.Format][]byte{},
		etag: map[string]string{},
	}
	var err error
	if s.store, err = artifact.NewStore(dir); err != nil {
		return s, fmt.Errorf("opening store: %w", err)
	}
	p := ps.params(seed)
	for _, id := range ps.IDs {
		a, err := experiments.Build(id, p)
		if err != nil {
			return s, fmt.Errorf("pre-fill build: %w", err)
		}
		meta, err := s.store.Put(a)
		if err != nil {
			return s, fmt.Errorf("pre-fill put: %w", err)
		}
		s.etag[id] = `"` + meta.ArtifactDigest + `"`
		s.want[id] = map[artifact.Format][]byte{}
		for _, f := range formats {
			var b bytes.Buffer
			if err := artifact.Encode(&b, f, a); err != nil {
				return s, fmt.Errorf("encoding %s as %s: %w", id, f, err)
			}
			s.want[id][f] = b.Bytes()
		}
		s.built = append(s.built, a)
	}
	return s, nil
}

// request is one scheduled HTTP request.
type request struct {
	class  string
	id     string
	format artifact.Format
}

func (r request) path() string {
	p := "/v1/experiments/" + r.id + "?format=" + string(r.format) + "&quick=true"
	if r.class == classCold {
		return "/cold" + p
	}
	return p
}

// blockSchedule draws one block's requests for every client. Disk and
// cold keys are split so no two clients share one, which keeps each
// request's class exact under concurrency: a hot or revalidate request
// only repeats a key its own client was already served in the block.
func blockSchedule(rng *stats.RNG, clients int, withCold bool) [][]request {
	keys := make([]int, len(experiments.Specs)*len(formats))
	rng.Perm(keys)
	cheap := make([]int, len(cheapIDs))
	rng.Perm(cheap)
	out := make([][]request, clients)
	for c := range out {
		var kinds []string
		for i := 0; i < diskPerClient; i++ {
			kinds = append(kinds, classDisk)
		}
		for i := 0; withCold && i < coldPerClient; i++ {
			kinds = append(kinds, classCold)
		}
		for i := 0; i < hotPerClient; i++ {
			kinds = append(kinds, classHot)
		}
		for i := 0; i < revalidatePerClient; i++ {
			kinds = append(kinds, classRevalidate)
		}
		order := make([]int, len(kinds))
		rng.Perm(order)
		// The first request must be a disk read so that hot and
		// revalidate requests always have a served key to repeat.
		for i, o := range order {
			if kinds[o] == classDisk {
				order[0], order[i] = order[i], order[0]
				break
			}
		}
		var served []request
		nDisk, nCold := 0, 0
		for _, o := range order {
			var r request
			switch kinds[o] {
			case classDisk:
				k := keys[c*diskPerClient+nDisk]
				nDisk++
				r = request{class: classDisk, id: experiments.Specs[k/len(formats)].ID, format: formats[k%len(formats)]}
				served = append(served, r)
			case classCold:
				r = request{class: classCold, id: cheapIDs[cheap[c*coldPerClient+nCold]], format: formats[rng.Intn(len(formats))]}
				nCold++
			case classHot:
				r = served[rng.Intn(len(served))]
				r.class = classHot
			default:
				r = served[rng.Intn(len(served))]
				r.class = classRevalidate
			}
			out[c] = append(out[c], r)
		}
	}
	return out
}

// router sends /cold/... to the server over an empty store and
// everything else to the restarted server over the pre-filled store.
// The two servers are swapped between blocks while the listener and
// the clients' keep-alive connections stay up.
type router struct {
	main, cold atomic.Pointer[serve.Server]
	// tr, when set, records one span per request around ServeHTTP.
	tr *tracer
}

func (rt *router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	srv := rt.main.Load()
	if rest, ok := strings.CutPrefix(r.URL.Path, "/cold"); ok {
		srv = rt.cold.Load()
		r2 := new(http.Request)
		*r2 = *r
		u := *r.URL
		u.Path = rest
		r2.URL = &u
		r = r2
	}
	if rt.tr == nil {
		srv.ServeHTTP(w, r)
		return
	}
	sp := rt.tr.begin("serve."+r.Header.Get(classHeader), 0)
	srv.ServeHTTP(w, r)
	rt.tr.end(sp)
}

// clientResult is one client's outcome for one block.
type clientResult struct {
	latency map[string][]float64 // seconds per class
	t       tally
}

// client is one closed-loop client with its own keep-alive connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and checks the response: a 200 body must equal
// the direct encoding, a 304 must carry the ETag first served.
func (c *client) do(r request, s *serveSetup) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+r.path(), nil)
	if err != nil {
		return 0, fmt.Errorf("building request: %w", err)
	}
	req.Header.Set(classHeader, r.class)
	if r.class == classRevalidate {
		req.Header.Set("If-None-Match", s.etag[r.id])
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", r.class, r.path(), err)
	}
	body, readErr := io.ReadAll(resp.Body)
	closeErr := resp.Body.Close()
	d := time.Since(start)
	if err := errors.Join(readErr, closeErr); err != nil {
		return d, fmt.Errorf("%s %s: reading body: %w", r.class, r.path(), err)
	}
	if got := resp.Header.Get("ETag"); got != s.etag[r.id] {
		return d, fmt.Errorf("%s %s: ETag %s, first served %s", r.class, r.path(), got, s.etag[r.id])
	}
	want := http.StatusOK
	if r.class == classRevalidate {
		want = http.StatusNotModified
	}
	switch {
	case resp.StatusCode != want:
		return d, fmt.Errorf("%s %s: status %d, want %d", r.class, r.path(), resp.StatusCode, want)
	case want == http.StatusOK && !bytes.Equal(body, s.want[r.id][r.format]):
		return d, fmt.Errorf("%s %s: body differs from a direct encoding", r.class, r.path())
	}
	return d, nil
}

// mixRun is the state of a serve-mix measured phase.
type mixRun struct {
	cfg config
	// dir holds this mix's cold stores; every block's is new and empty.
	dir     string
	ps      paramSet
	setup   *serveSetup
	rt      *router
	clients []*client
	rng     *stats.RNG
	blocks  int
}

// serverStats sums the counters of the servers a run has closed.
type serverStats struct {
	computes, sheds uint64
	cache           artifact.CacheStats
}

func (s *serverStats) add(srv *serve.Server) {
	s.computes += srv.Computes()
	s.sheds += srv.Sheds()
	c := srv.CacheStats()
	s.cache.Hits += c.Hits
	s.cache.Misses += c.Misses
}

// block runs one schedule block: restart the main server over the
// pre-filled store, let every client send its requests, then close the
// server. Every coldEvery-th block also starts a server over an empty
// store for the block's cold requests.
func (mr *mixRun) block(st *serverStats) ([]clientResult, error) {
	withCold := mr.blocks%coldEvery == 0
	primary, err := serve.New(serve.Options{Store: mr.setup.store, Quick: mr.ps.params(mr.cfg.seed), Workers: mr.cfg.width})
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	defer st.add(primary)
	defer primary.Close()
	mr.rt.main.Store(primary)
	if withCold {
		coldDir := filepath.Join(mr.dir, fmt.Sprintf("cold-%d", mr.blocks))
		coldStore, err := artifact.NewStore(coldDir)
		if err != nil {
			return nil, fmt.Errorf("opening cold store: %w", err)
		}
		cold, err := serve.New(serve.Options{Store: coldStore, Quick: mr.ps.params(mr.cfg.seed), Workers: mr.cfg.width})
		if err != nil {
			return nil, fmt.Errorf("starting cold server: %w", err)
		}
		defer st.add(cold)
		defer cold.Close()
		mr.rt.cold.Store(cold)
	}
	sched := blockSchedule(mr.rng.SplitLabeled(uint64(mr.blocks)), len(mr.clients), withCold)
	mr.blocks++
	res := make([]clientResult, len(mr.clients))
	var wg sync.WaitGroup
	for i := range mr.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := clientResult{latency: map[string][]float64{}}
			for _, r := range sched[i] {
				d, err := mr.clients[i].do(r, mr.setup)
				out.t.check(err)
				out.latency[r.class] = append(out.latency[r.class], d.Seconds())
			}
			res[i] = out
		}(i)
	}
	wg.Wait()
	return res, nil
}

// blockRecord is what one block measured.
type blockRecord struct {
	wall    float64              // seconds, restart and teardown included
	allocMB float64              // heap allocated during the block
	latency map[string][]float64 // seconds per request, by class
}

func (b blockRecord) requests() int {
	n := 0
	for _, c := range classes {
		n += len(b.latency[c])
	}
	return n
}

// mixOutcome aggregates a run of blocks.
type mixOutcome struct {
	blocks  []blockRecord
	t       tally
	servers serverStats
}

// runBlocks runs blocks until the deadline passes, or n blocks when n
// is positive.
func (mr *mixRun) runBlocks(deadline time.Time, n int) (mixOutcome, error) {
	var out mixOutcome
	var ms runtime.MemStats
	for i := 0; (n > 0 && i < n) || (n <= 0 && (i == 0 || time.Now().Before(deadline))); i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		t0 := time.Now()
		res, err := mr.block(&out.servers)
		if err != nil {
			return out, err
		}
		rec := blockRecord{wall: time.Since(t0).Seconds(), latency: map[string][]float64{}}
		runtime.ReadMemStats(&ms)
		rec.allocMB = float64(ms.TotalAlloc-before) / (1 << 20)
		for _, r := range res {
			out.t.add(r.t)
			for _, class := range classes {
				rec.latency[class] = append(rec.latency[class], r.latency[class]...)
			}
		}
		out.blocks = append(out.blocks, rec)
	}
	return out, nil
}

// windowBlocks is how many consecutive blocks one statistics window
// spans: two cold blocks and about 7700 read requests, so every window
// has the same mix and the read p99 has more than ten samples beyond it.
const windowBlocks = 2 * coldEvery

// windowMetrics reports throughput and read latency per window of
// consecutive blocks as the median over windows, so a burst of outside
// load that covers a few windows does not move them. Cold requests are
// rarer; their percentiles are taken over the whole run.
func windowMetrics(m metrics, blocks []blockRecord) {
	n := len(blocks) / windowBlocks
	size := windowBlocks
	if n == 0 {
		n, size = 1, len(blocks)
	}
	var rps, r50, r99, colds []float64
	for w := 0; w < n; w++ {
		var reads []float64
		wall, reqs := 0.0, 0
		for _, b := range blocks[w*size : (w+1)*size] {
			wall += b.wall
			reqs += b.requests()
			for _, c := range []string{classHot, classRevalidate, classDisk} {
				reads = append(reads, b.latency[c]...)
			}
			colds = append(colds, b.latency[classCold]...)
		}
		sort.Float64s(reads)
		q := stats.QuantilesSorted(reads, 0.5, 0.99)
		rps = append(rps, float64(reqs)/wall)
		r50, r99 = append(r50, q[0]*1e3), append(r99, q[1]*1e3)
	}
	for _, b := range blocks[n*size:] {
		colds = append(colds, b.latency[classCold]...)
	}
	sort.Float64s(colds)
	cq := stats.QuantilesSorted(colds, 0.5, 0.9)
	med := func(xs []float64) float64 { return stats.Quantile(xs, 0.5) }
	m.set("req_per_s", "1/s", med(rps))
	m.set("read_p50_ms", "ms", med(r50))
	m.set("read_p99_ms", "ms", med(r99))
	m.set("cold_p50_ms", "ms", cq[0]*1e3)
	m.set("cold_p90_ms", "ms", cq[1]*1e3)
}

// newMixRun starts the listener and the clients over a set-up store;
// name is the scratch subdirectory the mix's cold stores go in. Mixes
// with the same seed send the same schedule.
func newMixRun(cfg config, name string, ps paramSet, s *serveSetup, tr *tracer) (*mixRun, *httptest.Server) {
	rt := &router{tr: tr}
	ts := httptest.NewServer(rt)
	mr := &mixRun{cfg: cfg, dir: filepath.Join(cfg.scratch, name), ps: ps, setup: s, rt: rt, rng: stats.NewRNG(cfg.seed ^ 0x5e77e)}
	for i := 0; i < mixClients; i++ {
		mr.clients = append(mr.clients, newClient(ts.URL))
	}
	return mr, ts
}

func (mr *mixRun) close(ts *httptest.Server) {
	for _, c := range mr.clients {
		c.close()
	}
	ts.Close()
}

// setupServeTimed repeats the serve-mix set-up, each round into a new
// store, and keeps the last.
func setupServeTimed(cfg config, ps paramSet) (serveSetup, float64, error) {
	round := 0
	return timedSetup(func() (serveSetup, error) {
		round++
		return setupServe(filepath.Join(cfg.scratch, fmt.Sprintf("store-%d", round)), ps, cfg.seed)
	})
}

// serveMix runs the serve-mix workload: closed-loop clients over
// keep-alive connections, block after block.
func serveMix(cfg config, env *envRecord) (metrics, tally, error) {
	setup, setupS, err := setupServeTimed(cfg, env.Params)
	if err != nil {
		return nil, tally{}, err
	}
	mr, ts := newMixRun(cfg, "mix", env.Params, &setup, nil)
	out, err := mr.runBlocks(time.Now().Add(time.Duration(cfg.seconds)*time.Second), 0)
	mr.close(ts)
	if err != nil {
		return nil, tally{}, err
	}
	var walls, allocs []float64
	for _, b := range out.blocks {
		walls = append(walls, b.wall)
		allocs = append(allocs, b.allocMB)
	}
	m := metrics{}
	m.set("setup_s", "s", setupS)
	m.set("wall_s", "s", stats.Quantile(walls, 0.5))
	m.set("alloc_mb", "MB", stats.Quantile(allocs, 0.5))
	m.set("max_rss_mb", "MB", maxRSSMB())
	windowMetrics(m, out.blocks)
	return m, out.t, nil
}
