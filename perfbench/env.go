package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// envRecord identifies what produced a result, so records from
// different hosts, commits or parameter sets are never compared by
// mistake.
type envRecord struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	// Commit is the git commit run.sh found, or "unknown" outside a
	// git checkout; SourceDigest hashes the module's Go sources and
	// identifies the code either way.
	Commit       string   `json:"commit"`
	SourceDigest string   `json:"source_digest"`
	PoolWidth    int      `json:"pool_width"`
	Params       paramSet `json:"params"`
}

// paramSet is the experiment scale a workload runs at.
type paramSet struct {
	Name         string   `json:"name"`
	IDs          []string `json:"ids"`
	Chips        int      `json:"chips"`
	DistChips    int      `json:"dist_chips"`
	Instructions uint64   `json:"instructions"`
	Benchmarks   []string `json:"benchmarks"`
	Parallel     int      `json:"parallel"`
}

func environment(cfg config) (*envRecord, error) {
	digest, err := sourceDigest(".")
	if err != nil {
		return nil, err
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return &envRecord{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: commit, SourceDigest: digest, PoolWidth: cfg.width,
		Params: workloadParams(cfg),
	}, nil
}

// sourceDigest hashes go.mod and every .go file of the module under
// root, skipping hidden directories, testdata and this benchmark.
func sourceDigest(root string) (string, error) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "", fmt.Errorf("not at the repository root: %w", err)
	}
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || path == filepath.Join(root, "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("walking sources: %w", err)
	}
	sort.Strings(files)
	var sums []byte
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", fmt.Errorf("hashing sources: %w", err)
		}
		name := sha256.Sum256([]byte(filepath.ToSlash(f)))
		body := sha256.Sum256(data)
		sums = append(append(sums, name[:]...), body[:]...)
	}
	total := sha256.Sum256(sums)
	return hex.EncodeToString(total[:8]), nil
}
