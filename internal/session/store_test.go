package session

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
