package artifact

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStorePutGet(t *testing.T) {
	s := newTestStore(t)
	tb := sample()
	m, err := s.Put(tb)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != tb.ID || m.ParamsDigest != tb.Prov.ParamsDigest {
		t.Errorf("meta mismatch: %+v", m)
	}
	wantDigest, err := tb.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if m.ArtifactDigest != wantDigest {
		t.Errorf("artifact digest %q, want %q", m.ArtifactDigest, wantDigest)
	}

	got, gm, err := s.Get(tb.ID, tb.Prov.ParamsDigest)
	if err != nil {
		t.Fatal(err)
	}
	if gm.ArtifactDigest != m.ArtifactDigest {
		t.Errorf("Get meta digest %q, want %q", gm.ArtifactDigest, m.ArtifactDigest)
	}
	gotDigest, err := got.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if gotDigest != wantDigest {
		t.Errorf("round-tripped table digest %q, want %q", gotDigest, wantDigest)
	}
}

func TestStoreMiss(t *testing.T) {
	s := newTestStore(t)
	if _, _, err := s.Get("fig0", "cafebabe"); !errors.Is(err, ErrMiss) {
		t.Errorf("Get on empty store: err = %v, want ErrMiss", err)
	}
	if _, _, err := s.ReadFormat("fig0", "cafebabe", FormatText); !errors.Is(err, ErrMiss) {
		t.Errorf("ReadFormat on empty store: err = %v, want ErrMiss", err)
	}
}

func TestStoreReadFormats(t *testing.T) {
	s := newTestStore(t)
	tb := sample()
	if _, err := s.Put(tb); err != nil {
		t.Fatal(err)
	}
	for _, f := range []Format{FormatText, FormatJSON, FormatCSV} {
		fromStore, _, err := s.ReadFormat(tb.ID, tb.Prov.ParamsDigest, f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		var direct bytes.Buffer
		if err := Encode(&direct, f, sample()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fromStore, direct.Bytes()) {
			t.Errorf("%s: store bytes differ from direct encoding", f)
		}
	}
}

// TestStorePutIdempotent: re-Put of the same artifact is a no-op that
// returns the existing meta without rewriting the entry.
func TestStorePutIdempotent(t *testing.T) {
	s := newTestStore(t)
	tb := sample()
	m1, err := s.Put(tb)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(s.Dir(), tb.ID, tb.Prov.ParamsDigest)
	before, err := os.Stat(filepath.Join(dir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Put(sample())
	if err != nil {
		t.Fatal(err)
	}
	if *m1 != *m2 {
		t.Errorf("re-Put meta differs: %+v vs %+v", m1, m2)
	}
	after, err := os.Stat(filepath.Join(dir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Error("re-Put rewrote the entry")
	}
}

func TestStoreRejectsInvalid(t *testing.T) {
	s := newTestStore(t)
	bad := sample()
	bad.Prov.ParamsDigest = ""
	if _, err := s.Put(bad); err == nil {
		t.Error("Put accepted an invalid artifact")
	}
}

func TestStoreUnsafeKeys(t *testing.T) {
	s := newTestStore(t)
	for _, k := range []string{"", ".", "..", "a/b", ".tmp-x", strings.Repeat("x", 129)} {
		if _, _, err := s.Get(k, "abc"); err == nil || errors.Is(err, ErrMiss) {
			t.Errorf("Get with unsafe id %q: err = %v, want hard error", k, err)
		}
		if _, _, err := s.Get("fig0", k); err == nil || errors.Is(err, ErrMiss) {
			t.Errorf("Get with unsafe digest %q: err = %v, want hard error", k, err)
		}
	}
	// sec4.1 — a real registry ID with a dot — must be accepted.
	tb := sample()
	tb.ID = "sec4.1"
	tb.Kind = KindSection
	if _, err := s.Put(tb); err != nil {
		t.Errorf("Put with dotted id: %v", err)
	}
}

func TestStoreList(t *testing.T) {
	s := newTestStore(t)
	if metas, err := s.List("fig0"); err != nil || len(metas) != 0 {
		t.Fatalf("List on empty store = %v, %v", metas, err)
	}
	a := sample()
	if _, err := s.Put(a); err != nil {
		t.Fatal(err)
	}
	b := sample()
	b.Prov.ParamsDigest = "feedface"
	if _, err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	metas, err := s.List("fig0")
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 {
		t.Fatalf("List = %d entries, want 2", len(metas))
	}
	// Sorted by params digest (directory order).
	if metas[0].ParamsDigest > metas[1].ParamsDigest {
		t.Error("List not sorted")
	}
	// An uncommitted entry (no meta.json) is skipped.
	if err := os.MkdirAll(filepath.Join(s.Dir(), "fig0", "0000aborted"), 0o755); err != nil {
		t.Fatal(err)
	}
	metas, err = s.List("fig0")
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 {
		t.Errorf("List counts uncommitted entries: %d", len(metas))
	}
}

// orphanTmpDirs lists leftover .tmp-* directories anywhere under root.
func orphanTmpDirs(t *testing.T, root string) []string {
	t.Helper()
	var orphans []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".tmp-") {
			orphans = append(orphans, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return orphans
}

// TestStorePutClosesFiles: Put closes every file it creates, on the
// success path too. Each file osCreate hands out is recorded; after one
// Put, closing it again must report os.ErrClosed.
func TestStorePutClosesFiles(t *testing.T) {
	var created []*os.File
	osCreate = func(name string) (*os.File, error) {
		f, err := os.Create(name)
		if err == nil {
			created = append(created, f)
		}
		return f, err
	}
	defer func() { osCreate = os.Create }()
	if _, err := newTestStore(t).Put(sample()); err != nil {
		t.Fatal(err)
	}
	if len(created) == 0 {
		t.Fatal("Put created no files through osCreate")
	}
	for _, f := range created {
		if err := f.Close(); !errors.Is(err, os.ErrClosed) {
			t.Errorf("Put left %s open (second Close = %v)", filepath.Base(f.Name()), err)
		}
	}
}

// TestStorePutFaultInjection drives Put's commit path into every
// injectable failure — temp-dir creation, file creation (full disk),
// and the final rename — and asserts the two crash-consistency
// invariants: a failed commit leaves no orphan .tmp-* directory, and
// the failure is not memoized (the same Put succeeds once the fault
// clears). It is the proof test behind store.go's errflow suppression
// on `defer os.RemoveAll(tmp)`.
func TestStorePutFaultInjection(t *testing.T) {
	boom := errors.New("injected fault")
	cases := []struct {
		name    string
		inject  func()
		restore func()
	}{
		{
			name:    "mkdirtemp",
			inject:  func() { osMkdirTemp = func(string, string) (string, error) { return "", boom } },
			restore: func() { osMkdirTemp = os.MkdirTemp },
		},
		{
			name: "create",
			inject: func() {
				osCreate = func(string) (*os.File, error) { return nil, boom }
			},
			restore: func() { osCreate = os.Create },
		},
		{
			name:    "rename",
			inject:  func() { osRename = func(string, string) error { return boom } },
			restore: func() { osRename = os.Rename },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestStore(t)
			tb := sample()
			tc.inject()
			defer tc.restore()
			if _, err := s.Put(tb); err == nil {
				t.Fatal("Put succeeded under injected fault")
			}
			if orphans := orphanTmpDirs(t, s.Dir()); len(orphans) != 0 {
				t.Errorf("failed Put left orphan temp dirs: %v", orphans)
			}
			// The failure must not be memoized as a committed entry.
			if _, _, err := s.Get(tb.ID, tb.Prov.ParamsDigest); !errors.Is(err, ErrMiss) {
				t.Errorf("Get after failed Put: err = %v, want ErrMiss", err)
			}
			// Once the fault clears, the identical Put commits cleanly.
			tc.restore()
			m, err := s.Put(sample())
			if err != nil {
				t.Fatalf("Put after fault cleared: %v", err)
			}
			if _, gm, err := s.Get(tb.ID, tb.Prov.ParamsDigest); err != nil || gm.ArtifactDigest != m.ArtifactDigest {
				t.Errorf("Get after recovery = %+v, %v", gm, err)
			}
			if orphans := orphanTmpDirs(t, s.Dir()); len(orphans) != 0 {
				t.Errorf("recovered Put left orphan temp dirs: %v", orphans)
			}
		})
	}
}
