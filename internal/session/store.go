package session

// store.go is the pluggable artifact storage behind semflowd, following
// the multi-backend database.go pattern from gorse: one small interface,
// backends selected by the scheme of a data-source string, so a sqlite or
// S3-style backend can slot in later without touching the callers. Two
// backends ship today: the filesystem (one directory per session, atomic
// writes) and memory (tests, ephemeral servers). It is where both drivers
// keep their snapshots: semflowd's jobs and semflow -checkpoint DIR alike
// deposit checkpoint.gob here, and writeFile below is the one crash-safe
// file write of the repository.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound reports a missing session or artifact.
var ErrNotFound = errors.New("session: artifact not found")

// ErrExists reports a Create of a session the store already holds.
var ErrExists = errors.New("session: session exists")

// Store persists per-session artifacts (history JSONL, checkpoints, trace
// JSON, result summaries) under (session id, artifact name) keys.
// Implementations must make Put atomic: a reader never observes a
// half-written artifact. All methods are safe for concurrent use.
type Store interface {
	// Create makes a new, empty session, or fails with ErrExists when the
	// store holds one under that id: the manager claims every job id with
	// it, so no id is handed out twice, across restarts too.
	Create(session string) error
	// Put writes an artifact, replacing any previous content; it creates
	// the session if need be.
	Put(session, name string, data []byte) error
	// Get reads an artifact (ErrNotFound if absent).
	Get(session, name string) ([]byte, error)
	// List returns the sorted artifact names of one session (ErrNotFound if
	// the store holds no such session).
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
// writeFile, so crashes and concurrent writers never expose partial
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

func (s *FSStore) Create(session string) error {
	if err := checkKey(session); err != nil {
		return err
	}
	err := s.mkdir(session)
	if errors.Is(err, fs.ErrExist) {
		return fmt.Errorf("%w: %s", ErrExists, session)
	}
	if err != nil {
		return fmt.Errorf("session: store: %w", err)
	}
	return nil
}

func (s *FSStore) Put(session, name string, data []byte) error {
	if err := checkKey(session); err != nil {
		return err
	}
	if err := checkKey(name); err != nil {
		return err
	}
	if err := s.mkdir(session); err != nil && !errors.Is(err, fs.ErrExist) {
		return fmt.Errorf("session: store: %w", err)
	}
	if err := writeFile(filepath.Join(s.root, session, name), data); err != nil {
		return fmt.Errorf("session: store: %w", err)
	}
	return nil
}

// mkdir creates the session's directory and fsyncs the root, so the new
// directory's entry survives a crash as the files written into it do; an
// existing directory is fs.ErrExist.
func (s *FSStore) mkdir(session string) error {
	if err := os.Mkdir(filepath.Join(s.root, session), 0o755); err != nil {
		return err
	}
	return syncDir(s.root)
}

// writeFile replaces path with data so that no crash, reader or concurrent
// writer ever sees a partial file: the bytes go to a uniquely named hidden
// temp file in the target directory, are fsync'd (rename alone orders the
// directory entry, not the data), made 0644 and renamed over path, and the
// directory is fsync'd so the rename itself survives. On an error the temp
// file is removed.
func writeFile(path string, data []byte) error {
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
	return syncDir(dir)
}

// syncDir fsyncs a directory, making its entries' creations and renames
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
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

func (s *MemStore) Create(session string) error {
	if err := checkKey(session); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.data[session]; ok {
		return fmt.Errorf("%w: %s", ErrExists, session)
	}
	s.data[session] = map[string][]byte{}
	return nil
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
