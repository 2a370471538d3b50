package artifact

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// ErrMiss reports that a store has no committed entry for a key.
var ErrMiss = errors.New("artifact: store miss")

// Meta is the per-entry manifest, written last as the commit marker: an
// entry without a readable meta.json does not exist. ArtifactDigest is
// the Table content hash the HTTP layer serves as the ETag.
type Meta struct {
	// ID is the experiment ID of the stored artifact.
	ID string `json:"id"`
	// Title is the artifact title (so listings don't need table.json).
	Title string `json:"title"`
	// Kind is the artifact kind.
	Kind Kind `json:"kind"`
	// SchemaVersion is the wire-format version of the stored files.
	SchemaVersion int `json:"schema_version"`
	// ParamsDigest is the parameter hash half of the store key.
	ParamsDigest string `json:"params_digest"`
	// ArtifactDigest is the content hash of the stored table.
	ArtifactDigest string `json:"artifact_digest"`
}

// Fault-injection seams for the commit path. Production code never
// reassigns these; tests swap them to simulate commit-time failures
// (full disk at create, rename across a dead mount) and then assert
// that a failed Put leaves no orphan temp directory and is not
// memoized as a committed entry.
var (
	osMkdirTemp = os.MkdirTemp
	osRename    = os.Rename
	osCreate    = os.Create
)

// Store is a content-addressed artifact cache on disk, keyed by
// (experiment ID, params digest):
//
//	DIR/<id>/<paramsDigest>/
//	    table.json    canonical structured form
//	    artifact.txt  text encoding
//	    artifact.csv  CSV encoding
//	    meta.json     manifest; written last (commit marker)
//
// All three encodings are materialized at Put time, so serving any
// format later is a file read — no re-simulation, no re-encoding.
// Entries are immutable: both key halves are content hashes, so a key
// can only ever map to one value, and Put of an existing key is a
// no-op that returns the committed manifest. Writes go through a
// temporary directory renamed into place, so a crashed or concurrent
// writer can never publish a partial entry.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, errorf("store: %v", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// entryDir maps a key to its directory, rejecting path-unsafe keys
// (store keys are registry IDs and hex digests; anything else is a
// caller bug or a hostile request).
func (s *Store) entryDir(id, paramsDigest string) (string, error) {
	if !safeKey(id) || !safeKey(paramsDigest) {
		return "", errorf("store: unsafe key %q/%q", id, paramsDigest)
	}
	return filepath.Join(s.dir, id, paramsDigest), nil
}

// safeKey accepts single path components built from the characters
// registry IDs and hex digests use.
func safeKey(k string) bool {
	if k == "" || len(k) > 128 {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		ok := c == '.' || c == '-' || c == '_' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !ok {
			return false
		}
	}
	return k != "." && k != ".." && !strings.HasPrefix(k, ".tmp-")
}

// readMeta loads an entry's manifest; ErrMiss if absent.
func (s *Store) readMeta(dir string) (*Meta, error) {
	b, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrMiss
	}
	if err != nil {
		return nil, errorf("store: %v", err)
	}
	var m Meta
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, errorf("store: corrupt meta in %s: %v", dir, err)
	}
	return &m, nil
}

// Get loads the structured table for a key. Returns ErrMiss when the
// entry has not been committed.
func (s *Store) Get(id, paramsDigest string) (*Table, *Meta, error) {
	dir, err := s.entryDir(id, paramsDigest)
	if err != nil {
		return nil, nil, err
	}
	m, err := s.readMeta(dir)
	if err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, "table.json"))
	if err != nil {
		return nil, nil, errorf("store: %v", err)
	}
	t, err := DecodeJSON(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	return t, m, nil
}

// ReadFormat returns the stored bytes of one encoding. Returns ErrMiss
// when the entry has not been committed.
func (s *Store) ReadFormat(id, paramsDigest string, f Format) ([]byte, *Meta, error) {
	dir, err := s.entryDir(id, paramsDigest)
	if err != nil {
		return nil, nil, err
	}
	m, err := s.readMeta(dir)
	if err != nil {
		return nil, nil, err
	}
	// JSON is the canonical structured form, stored as table.json; the
	// other encodings live beside it as artifact.<ext>.
	name := "artifact." + f.Ext()
	if f == FormatJSON {
		name = "table.json"
	}
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, nil, errorf("store: %v", err)
	}
	return b, m, nil
}

// Put commits an artifact under (its ID, its provenance's params
// digest), materializing all three encodings. Committing an existing
// key is a no-op returning the already-committed manifest.
func (s *Store) Put(a Artifact) (*Meta, error) {
	t := a.ArtifactTable()
	if err := Validate(t); err != nil {
		return nil, err
	}
	dir, err := s.entryDir(t.ID, t.Prov.ParamsDigest)
	if err != nil {
		return nil, err
	}
	if m, err := s.readMeta(dir); err == nil {
		return m, nil
	} else if !errors.Is(err, ErrMiss) {
		return nil, err
	}
	digest, err := t.Digest()
	if err != nil {
		return nil, err
	}
	m := &Meta{
		ID:             t.ID,
		Title:          t.Title,
		Kind:           t.Kind,
		SchemaVersion:  t.Prov.SchemaVersion,
		ParamsDigest:   t.Prov.ParamsDigest,
		ArtifactDigest: digest,
	}
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return nil, errorf("store: %v", err)
	}
	tmp, err := osMkdirTemp(filepath.Dir(dir), ".tmp-")
	if err != nil {
		return nil, errorf("store: %v", err)
	}
	defer os.RemoveAll(tmp) //lint:allow errflow best-effort cleanup; TestStorePutFaultInjection proves no orphan temp dir survives any failure
	if err := s.writeEntry(tmp, t, m); err != nil {
		return nil, err
	}
	if err := osRename(tmp, dir); err != nil {
		// A concurrent writer can win the rename; both wrote identical
		// content (the key is a content address), so their entry serves.
		if m2, err2 := s.readMeta(dir); err2 == nil {
			return m2, nil
		}
		return nil, errorf("store: %v", err)
	}
	return m, nil
}

// writeEntry materializes the entry files into dir from the one built
// table, meta.json last.
func (s *Store) writeEntry(dir string, t *Table, m *Meta) error {
	if err := writeFileWith(filepath.Join(dir, "table.json"), func(f *os.File) error {
		return EncodeJSON(f, t)
	}); err != nil {
		return err
	}
	if err := writeFileWith(filepath.Join(dir, "artifact.txt"), func(f *os.File) error {
		return EncodeText(f, t)
	}); err != nil {
		return err
	}
	if err := writeFileWith(filepath.Join(dir, "artifact.csv"), func(f *os.File) error {
		return EncodeCSV(f, t)
	}); err != nil {
		return err
	}
	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return errorf("store: %v", err)
	}
	return writeFileWith(filepath.Join(dir, "meta.json"), func(f *os.File) error {
		_, werr := f.Write(append(mb, '\n'))
		return werr
	})
}

// writeFileWith creates path and streams content through fill,
// reporting close errors (the last chance to see ENOSPC).
func writeFileWith(path string, fill func(*os.File) error) error {
	f, err := osCreate(path)
	if err != nil {
		return errorf("store: %v", err)
	}
	if err := fill(f); err != nil {
		// The fill failure is primary, but a close failure is still a
		// failure of this write — surface both.
		return errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return errorf("store: %v", err)
	}
	return nil
}

// List enumerates the distinct committed entry manifests for one
// experiment ID, in lexical params-digest order. Uncommitted (tmp)
// directories are skipped.
func (s *Store) List(id string) ([]*Meta, error) {
	if !safeKey(id) {
		return nil, errorf("store: unsafe key %q", id)
	}
	ents, err := os.ReadDir(filepath.Join(s.dir, id))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, errorf("store: %v", err)
	}
	var out []*Meta
	for _, e := range ents {
		if !e.IsDir() || !safeKey(e.Name()) {
			continue
		}
		m, err := s.readMeta(filepath.Join(s.dir, id, e.Name()))
		if errors.Is(err, ErrMiss) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}
