package session

// store.go is the pluggable artifact storage behind semflowd, following
// the multi-backend database.go pattern from gorse: one small interface,
// backends selected by the scheme of a data-source string, so a sqlite or
// S3-style backend can slot in later without touching the callers. Two
// backends ship today: the filesystem (one directory per session, atomic
// writes) and memory (tests, ephemeral servers).

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/durable"
)

// ErrNotFound reports a missing session or artifact.
var ErrNotFound = errors.New("session: artifact not found")

// Store persists per-session artifacts (history JSONL, checkpoints, trace
// JSON, result summaries) under (session id, artifact name) keys.
// Implementations must make Put atomic: a reader never observes a
// half-written artifact. All methods are safe for concurrent use.
type Store interface {
	// Put writes an artifact, replacing any previous content.
	Put(session, name string, data []byte) error
	// Get reads an artifact (ErrNotFound if absent).
	Get(session, name string) ([]byte, error)
	// List returns the sorted artifact names of one session (ErrNotFound if
	// it holds none).
	List(session string) ([]string, error)
}

// OpenStore opens a store from a data-source string:
//
//	mem://            in-memory (ephemeral)
//	file:///var/data  filesystem rooted at /var/data
//	./data            filesystem (plain paths are file: shorthand)
func OpenStore(dsn string) (Store, error) {
	switch {
	case dsn == "mem://" || dsn == "mem:":
		return NewMemStore(), nil
	case strings.HasPrefix(dsn, "file://"):
		return NewFSStore(strings.TrimPrefix(dsn, "file://"))
	case strings.Contains(dsn, "://"):
		return nil, fmt.Errorf("session: unsupported store scheme in %q (have mem://, file://)", dsn)
	default:
		return NewFSStore(dsn)
	}
}

// checkKey rejects ids/names that would escape the per-session namespace
// (path separators, "..", empty). Put refuses such a key, so a read under one
// finds nothing: ErrNotFound, as for any other absent key.
func checkKey(k string) error {
	if k == "" || k == "." || k == ".." ||
		strings.ContainsAny(k, "/\\") || strings.Contains(k, "..") {
		return fmt.Errorf("session: invalid store key %q", k)
	}
	return nil
}

// --- filesystem backend ---

// FSStore stores artifacts as root/<session>/<name>. Writes go through
// durable.WriteFile, so crashes and concurrent writers never expose partial
// artifacts.
type FSStore struct {
	root string
}

// NewFSStore creates (if needed) the root directory and returns the store.
func NewFSStore(root string) (*FSStore, error) {
	if root == "" {
		return nil, fmt.Errorf("session: empty store root")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("session: store root: %w", err)
	}
	return &FSStore{root: root}, nil
}

func (s *FSStore) Put(session, name string, data []byte) error {
	if err := checkKey(session); err != nil {
		return err
	}
	if err := checkKey(name); err != nil {
		return err
	}
	dir := filepath.Join(s.root, session)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("session: store: %w", err)
	}
	if err := durable.WriteFile(filepath.Join(dir, name), data); err != nil {
		return fmt.Errorf("session: store: %w", err)
	}
	return nil
}

func (s *FSStore) Get(session, name string) ([]byte, error) {
	if checkKey(session) != nil || checkKey(name) != nil {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, session, name)
	}
	b, err := os.ReadFile(filepath.Join(s.root, session, name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, session, name)
	}
	return b, err
}

func (s *FSStore) List(session string) ([]string, error) {
	if checkKey(session) != nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, session)
	}
	entries, err := os.ReadDir(filepath.Join(s.root, session))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, session)
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// --- memory backend ---

// MemStore keeps artifacts in a map; contents are copied on Put and Get so
// callers cannot alias the stored bytes.
type MemStore struct {
	mu   sync.RWMutex
	data map[string]map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{data: map[string]map[string][]byte{}}
}

func (s *MemStore) Put(session, name string, data []byte) error {
	if err := checkKey(session); err != nil {
		return err
	}
	if err := checkKey(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.data[session]
	if !ok {
		m = map[string][]byte{}
		s.data[session] = m
	}
	m[name] = append([]byte(nil), data...)
	return nil
}

func (s *MemStore) Get(session, name string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.data[session][name]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, session, name)
	}
	return append([]byte(nil), b...), nil
}

func (s *MemStore) List(session string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.data[session]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, session)
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}
