package durable

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileReplacesWholeFilesAndLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.json")
	for _, body := range []string{"first, the longer one", "second"} {
		if err := WriteFile(path, []byte(body)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != body {
			t.Fatalf("read back %q, %v; want %q", got, err, body)
		}
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, %v; want 0644", fi.Mode(), err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries (%v), want only a.json", len(entries), err)
	}
	// A failed write leaves neither a temp file nor a target behind.
	if err := WriteFile(filepath.Join(dir, "missing", "b.json"), []byte("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
