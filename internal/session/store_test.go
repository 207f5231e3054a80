package session

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/ns"
	"repro/internal/parrun"
)

// storeBackends returns one of each backend for conformance testing.
func storeBackends(t *testing.T) map[string]Store {
	t.Helper()
	fs, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"fs": fs, "mem": NewMemStore()}
}

func TestStoreConformance(t *testing.T) {
	for name, st := range storeBackends(t) {
		t.Run(name, func(t *testing.T) {

			if _, err := st.Get("s1", "a.json"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get on empty store: %v, want ErrNotFound", err)
			}
			if _, err := st.List("s1"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("List on empty store: %v, want ErrNotFound", err)
			}

			if err := st.Put("s1", "a.json", []byte("alpha")); err != nil {
				t.Fatal(err)
			}
			if err := st.Put("s1", "b.gob", []byte("beta")); err != nil {
				t.Fatal(err)
			}
			if err := st.Put("s2", "a.json", []byte("other")); err != nil {
				t.Fatal(err)
			}
			// Overwrite replaces.
			if err := st.Put("s1", "a.json", []byte("alpha2")); err != nil {
				t.Fatal(err)
			}

			b, err := st.Get("s1", "a.json")
			if err != nil || string(b) != "alpha2" {
				t.Fatalf("Get = %q, %v; want alpha2", b, err)
			}
			names, err := st.List("s1")
			if err != nil {
				t.Fatal(err)
			}
			if want := []string{"a.json", "b.gob"}; !equalStrings(names, want) {
				t.Fatalf("List = %v, want %v", names, want)
			}
			if names, err := st.List("s2"); err != nil || !equalStrings(names, []string{"a.json"}) {
				t.Fatalf("List(s2) = %v, %v; want [a.json]", names, err)
			}

			// Mutating a returned slice must not alias the stored bytes.
			b[0] = 'X'
			b2, _ := st.Get("s1", "a.json")
			if string(b2) != "alpha2" {
				t.Fatalf("stored bytes aliased: %q", b2)
			}
		})
	}
}

func TestStoreRejectsEscapingKeys(t *testing.T) {
	bad := []string{"", ".", "..", "a/b", `a\b`, "../etc", "x..y"}
	for name, st := range storeBackends(t) {
		t.Run(name, func(t *testing.T) {
			for _, k := range bad {
				if err := st.Put(k, "a", nil); err == nil {
					t.Errorf("Put(session=%q) accepted", k)
				}
				if err := st.Put("s", k, nil); err == nil {
					t.Errorf("Put(name=%q) accepted", k)
				}
			}
		})
	}
}

// TestFSStorePutReplacesWholeFilesAndLeavesNoTemp: a replaced artifact reads
// back whole (the shorter body over the longer) with mode 0644, its directory
// holds nothing else, and a failed write leaves neither a temp file nor a
// target nor a directory behind.
func TestFSStorePutReplacesWholeFilesAndLeavesNoTemp(t *testing.T) {
	root := t.TempDir()
	st, err := NewFSStore(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{"first, the longer one", "second"} {
		if err := st.Put("s1", "a.json", []byte(body)); err != nil {
			t.Fatal(err)
		}
		if got, err := st.Get("s1", "a.json"); err != nil || string(got) != body {
			t.Fatalf("read back %q, %v; want %q", got, err, body)
		}
	}
	if fi, err := os.Stat(filepath.Join(root, "s1", "a.json")); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, %v; want 0644", fi.Mode(), err)
	}
	entries, err := os.ReadDir(filepath.Join(root, "s1"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries (%v), want only a.json", len(entries), err)
	}
	if err := writeFile(filepath.Join(root, "missing", "b.json"), []byte("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if _, err := os.Stat(filepath.Join(root, "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed write created its directory: %v", err)
	}
}

func TestFSStoreAtomicNoLitter(t *testing.T) {
	root := t.TempDir()
	st, err := NewFSStore(root)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := st.Put("s1", "a.json", bytes.Repeat([]byte("x"), 1<<12)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(filepath.Join(root, "s1"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file littered: %s", e.Name())
		}
	}
	// List must hide in-flight dot-temp files even if one were left behind.
	os.WriteFile(filepath.Join(root, "s1", ".a.json.tmp-999"), []byte("junk"), 0o644)
	names, err := st.List("s1")
	if err != nil {
		t.Fatal(err)
	}
	if !equalStrings(names, []string{"a.json"}) {
		t.Fatalf("List = %v, want [a.json]", names)
	}
}

// TestFSStoreConcurrentCheckpointPuts: eight writers replacing the same
// checkpoint.gob of one session at once never tear it — every Get decodes a
// whole snapshot, one writer's — and leave no temp file behind. Unique temp
// names are what make this hold: with one fixed temp name per target the
// writers would rename each other's half-written bytes into place.
func TestFSStoreConcurrentCheckpointPuts(t *testing.T) {
	root := t.TempDir()
	st, err := NewFSStore(root)
	if err != nil {
		t.Fatal(err)
	}
	const writers, rounds = 8, 20
	snapshot := func(w int) []byte {
		state := &ns.Checkpoint{Version: ns.CheckpointVersion, Step: 10, K: w,
			Fields: [][]float64{make([]float64, 64), make([]float64, 64)}}
		var buf bytes.Buffer
		if err := parrun.Serial(state).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := snapshot(w)
			for r := 0; r < rounds; r++ {
				if err := st.Put("run", ArtifactCheckpoint, data); err != nil {
					errs <- err
					return
				}
				ck, err := LoadCheckpoint(st, "run")
				if err != nil {
					errs <- err
					return
				}
				if k := ck.Ranks[0].State.K; ck.Step() != 10 || k < 0 || k >= writers {
					errs <- errors.New("decoded a snapshot no writer wrote")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(root, "run"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != ArtifactCheckpoint {
		t.Fatalf("store directory holds %d entries, want only %s", len(entries), ArtifactCheckpoint)
	}
}

func TestOpenStoreDispatch(t *testing.T) {
	if st, err := OpenStore("mem://"); err != nil {
		t.Fatal(err)
	} else if _, ok := st.(*MemStore); !ok {
		t.Fatalf("mem:// opened %T", st)
	}

	dir := t.TempDir()
	for _, dsn := range []string{dir, "file://" + dir} {
		st, err := OpenStore(dsn)
		if err != nil {
			t.Fatalf("OpenStore(%q): %v", dsn, err)
		}
		if _, ok := st.(*FSStore); !ok {
			t.Fatalf("OpenStore(%q) opened %T", dsn, st)
		}
	}

	if _, err := OpenStore("redis://localhost"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := OpenStore(""); err == nil {
		t.Fatal("empty dsn accepted")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
