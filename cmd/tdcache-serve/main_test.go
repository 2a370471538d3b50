package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tdcache/internal/serve"
)

// TestRunUnknownBackend checks that run rejects an unknown -backend
// before it opens the store: the error names both backends, and the
// store directory is never created.
func TestRunUnknownBackend(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	err := run("localhost:0", dir, "", "nonesuch", 0, serve.Options{})
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	for _, name := range []string{"3t1d", "sttram"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name backend %q", err, name)
		}
	}
	if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("store directory %s exists after a rejected backend (stat: %v)", dir, err)
	}
}
