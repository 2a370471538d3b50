package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"tdcache/internal/artifact"
	"tdcache/internal/stats"
)

// artifactReps is how many times each artifact-layer call is repeated:
// the calls take microseconds, so one round would be timer noise.
const artifactReps = 20

// timeArtifact times the artifact layer on the pre-fill artifacts:
// encoding in each format, Store.Put into fresh stores, Store.Get and
// Store.ReadFormat of committed entries, and LRU.Get of resident ones.
func timeArtifact(m metrics, dir string, built []artifact.Artifact) error {
	for _, f := range formats {
		var b bytes.Buffer
		start := time.Now()
		for r := 0; r < artifactReps; r++ {
			for _, a := range built {
				b.Reset()
				if err := artifact.Encode(&b, f, a); err != nil {
					return fmt.Errorf("encoding %s: %w", a.ArtifactID(), err)
				}
			}
		}
		per := time.Since(start).Seconds() / float64(artifactReps*len(built))
		m.set("artifact.encode_"+string(f)+"_us", "us", per*1e6)
	}

	var puts []float64
	var store *artifact.Store
	digests := map[string]string{}
	for r := 0; r < 3; r++ {
		var err error
		if store, err = artifact.NewStore(filepath.Join(dir, fmt.Sprintf("put-%d", r))); err != nil {
			return fmt.Errorf("opening store: %w", err)
		}
		for _, a := range built {
			start := time.Now()
			meta, err := store.Put(a)
			puts = append(puts, time.Since(start).Seconds())
			if err != nil {
				return fmt.Errorf("store put: %w", err)
			}
			digests[a.ArtifactID()] = meta.ParamsDigest
		}
	}
	m.set("artifact.store_put_ms", "ms", stats.Quantile(puts, 0.5)*1e3)

	var gets, reads []float64
	lru := artifact.NewLRU(64 << 20)
	var keys []artifact.CacheKey
	for r := 0; r < artifactReps; r++ {
		for _, a := range built {
			id := a.ArtifactID()
			start := time.Now()
			_, meta, err := store.Get(id, digests[id])
			gets = append(gets, time.Since(start).Seconds())
			if err != nil {
				return fmt.Errorf("store get: %w", err)
			}
			for _, f := range formats {
				start := time.Now()
				data, _, err := store.ReadFormat(id, digests[id], f)
				reads = append(reads, time.Since(start).Seconds())
				if err != nil {
					return fmt.Errorf("store read: %w", err)
				}
				if r == 0 {
					k := artifact.CacheKey{ID: id, ParamsDigest: digests[id], Format: f}
					lru.Put(k, data, meta)
					keys = append(keys, k)
				}
			}
		}
	}
	m.set("artifact.store_get_us", "us", stats.Quantile(gets, 0.5)*1e6)
	m.set("artifact.store_read_us", "us", stats.Quantile(reads, 0.5)*1e6)

	start := time.Now()
	for r := 0; r < artifactReps*10; r++ {
		for _, k := range keys {
			if _, _, ok := lru.Get(k); !ok {
				return fmt.Errorf("lru: resident key %v missed", k)
			}
		}
	}
	m.set("artifact.lru_get_us", "us", time.Since(start).Seconds()/float64(artifactReps*10*len(keys))*1e6)
	return nil
}
