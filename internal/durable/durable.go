// Package durable is the one crash-safe file write of the repository.
package durable

import (
	"os"
	"path/filepath"
)

// WriteFile replaces path with data so that no crash, reader or concurrent
// writer ever sees a partial file: the bytes go to a uniquely named hidden
// temp file in the target directory, are fsync'd (rename alone orders the
// directory entry, not the data), made 0644 and renamed over path, and the
// directory is fsync'd so the rename itself survives. On an error the temp
// file is removed.
func WriteFile(path string, data []byte) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Chmod(0o644); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
