package solver

// precondcache.go persists the preconditioner-selection table across runs,
// keyed by CPU model + Go version (la.CacheKey) and the generation of the
// preconditioners the trials ran: trial timings are machine-specific and a
// ranking is only valid among the variants it compared, so a selection tuned
// elsewhere, or against an earlier generation, is rejected with
// ErrCacheMismatch and the caller re-trials.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"repro/internal/durable"
	"repro/internal/la"
)

// ErrCacheMismatch reports a selection cache produced on different hardware,
// a different toolchain or an earlier preconditioner generation; the trials
// must be re-run, not trusted.
var ErrCacheMismatch = errors.New("solver: precond cache key mismatch")

// precondGeneration is bumped whenever a variant a selection may name changes
// what it computes, so files ranked against the old one are re-trialled.
// Generation 1 (files keyed by la.CacheKey alone) ranked the velocity-grid
// Schwarz sandwich; 2 is the pressure-grid Schwarz preconditioner; 3 drops
// the rank count from the entries.
const precondGeneration = 3

func precondCacheKey() string {
	return fmt.Sprintf("%s | precond gen %d", la.CacheKey(), precondGeneration)
}

type precondCacheFile struct {
	Key     string              `json:"key"`
	Entries []precondCacheEntry `json:"entries"`
}

type precondCacheEntry struct {
	K       int     `json:"k"`
	N       int     `json:"n"`
	Dim     int     `json:"dim"`
	Tol     float64 `json:"tol"`
	Precond string  `json:"precond"`
}

// SavePrecondCache writes t to path as JSON under this machine's cache key,
// atomically (concurrent sessions may save at once).
func SavePrecondCache(path string, t *PrecondTable) error {
	f := precondCacheFile{Key: precondCacheKey()}
	for _, k := range t.Keys() {
		name, _ := t.Lookup(k)
		f.Entries = append(f.Entries, precondCacheEntry{
			K: k.K, N: k.N, Dim: k.Dim, Tol: k.Tol, Precond: name,
		})
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if err := durable.WriteFile(path, b); err != nil {
		return fmt.Errorf("solver: precond cache: %w", err)
	}
	return nil
}

// LoadPrecondCache reads a table saved by SavePrecondCache. A file tuned on
// a different CPU model or Go version, or against another preconditioner
// generation, returns an error wrapping ErrCacheMismatch; unreadable or
// malformed files return a plain error.
func LoadPrecondCache(path string) (*PrecondTable, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f precondCacheFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("solver: precond cache %s: %w", path, err)
	}
	if key := precondCacheKey(); f.Key != key {
		return nil, fmt.Errorf("%w: file keyed %q, this build is %q", ErrCacheMismatch, f.Key, key)
	}
	t := &PrecondTable{m: make(map[PrecondKey]string, len(f.Entries))}
	for _, e := range f.Entries {
		if e.Precond == "" {
			return nil, fmt.Errorf("solver: precond cache %s: empty variant name", path)
		}
		t.m[PrecondKey{K: e.K, N: e.N, Dim: e.Dim, Tol: e.Tol}] = e.Precond
	}
	return t, nil
}
