package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/sweep"
)

// Addr computes the content address of a blob: the SHA-256 of its
// namespaced canonical identity, hex-encoded. The preimage is the
// authoritative identity, not the blob bytes — a simulation result is
// addressed by the canonical form of the point that produced it
// (sweep.Point.Canonical), which is well-defined before the result
// exists, so overlapping grids from different clients resolve to the
// same address and hit the cache instead of the worker pool. The kind
// prefix (the server stores only "result" blobs) keeps address spaces
// disjoint even for coincidentally equal canonical strings.
func Addr(kind, canonical string) string {
	h := sha256.Sum256([]byte(kind + "\x00" + canonical))
	return hex.EncodeToString(h[:])
}

// resultAddr is Addr("result", p.Canonical()), hashed from one stack
// buffer instead of the canonical string and its namespaced copy.
func resultAddr(p sweep.Point) string {
	var buf [384]byte
	h := sha256.Sum256(p.AppendCanonical(append(buf[:0], "result\x00"...)))
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], h[:])
	return string(hx[:])
}

// Store is the content-addressed blob store behind the sweep service:
// completed point results land here keyed by Addr. Entries are immutable — simulation is deterministic, so two
// writers of one address always carry identical-meaning bytes and the
// first write wins. With a backing directory every entry is persisted
// (one file per address, written atomically and fsynced — file and
// directory entry both) before Put makes it visible, so a restarted or
// power-cycled server serves stored results without re-simulating;
// with dir == "" the store is memory-only. Safe for concurrent use.
//
// For long-lived servers the in-memory layer can be bounded: with
// MaxMemBytes set on a directory-backed store, the memory layer becomes
// a size-capped LRU over the durable tier — evicted entries cost a file
// read on the next Get, never a re-simulation. A memory-only store
// ignores the cap (evicting would lose the only copy).
type Store struct {
	dir string
	// MaxMemBytes caps the total payload bytes held in memory (0 = no
	// cap). Set before first use; it is read unlocked.
	MaxMemBytes int64

	mu      sync.Mutex
	mem     map[string]*list.Element
	lru     *list.List // front = most recent; values are *storeEntry
	memSize int64
}

// storeEntry is one resident blob with its LRU bookkeeping.
type storeEntry struct {
	addr string
	data []byte
}

// OpenStore opens (creating if needed) a store backed by dir, or a
// memory-only store when dir is empty.
func OpenStore(dir string) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: open store: %w", err)
		}
	}
	return &Store{dir: dir, mem: make(map[string]*list.Element), lru: list.New()}, nil
}

// NewMemStore returns a memory-only store.
func NewMemStore() *Store {
	s, _ := OpenStore("")
	return s
}

// Get returns the blob at addr. Callers must treat the bytes as
// read-only; they are shared. A zero-length blob is a valid entry.
func (s *Store) Get(addr string) ([]byte, bool) {
	s.mu.Lock()
	if el, ok := s.mem[addr]; ok {
		s.lru.MoveToFront(el)
		data := el.Value.(*storeEntry).data
		s.mu.Unlock()
		return data, true
	}
	s.mu.Unlock()
	if s.dir == "" {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(s.dir, addr))
	if err != nil {
		return nil, false
	}
	s.mu.Lock()
	// First reader wins so every caller shares one slice.
	if el, ok := s.mem[addr]; ok {
		data = el.Value.(*storeEntry).data
		s.lru.MoveToFront(el)
	} else {
		s.insert(addr, data)
	}
	s.mu.Unlock()
	return data, true
}

// Put stores the blob at addr. An existing entry is left untouched
// (entries are immutable and writers of one address are interchangeable,
// see Store). The write to the backing directory is atomic AND durable:
// the temp file is fsynced before the rename and the directory entry is
// fsynced after it, so a crashed — or power-lost — server never leaves
// a torn or vanishing entry for its successor to trust. Only a durable
// entry becomes visible: when the write fails, Put returns the error,
// Get keeps missing, and a later Put of the address writes again.
func (s *Store) Put(addr string, data []byte) error {
	s.mu.Lock()
	_, ok := s.mem[addr]
	s.mu.Unlock()
	if ok {
		return nil
	}
	if s.dir != "" {
		if err := s.write(addr, data); err != nil {
			return err
		}
	}
	s.mu.Lock()
	if _, ok := s.mem[addr]; !ok {
		s.insert(addr, data)
	}
	s.mu.Unlock()
	return nil
}

// write persists one blob in the backing directory, atomically and
// durably (see Put).
func (s *Store) write(addr string, data []byte) error {
	path := filepath.Join(s.dir, addr)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	tmp, err := os.CreateTemp(s.dir, "put-*")
	if err != nil {
		return fmt.Errorf("serve: store put: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: store put: %w", err)
	}
	// Data must be on stable storage before the rename publishes the
	// entry, or a power loss could leave a visible, torn blob.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: store put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: store put: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: store put: %w", err)
	}
	// And the rename itself must be durable: fsync the directory so the
	// new entry survives power loss, not just process death.
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("serve: store put: %w", err)
	}
	return nil
}

// insert (mu held) adds a resident entry and evicts LRU entries beyond
// MaxMemBytes. Eviction needs a durable tier to fall back on, so a
// memory-only store never evicts; and the entry just inserted is exempt
// (a single over-cap blob must still be servable).
func (s *Store) insert(addr string, data []byte) {
	el := s.lru.PushFront(&storeEntry{addr: addr, data: data})
	s.mem[addr] = el
	s.memSize += int64(len(data))
	if s.MaxMemBytes <= 0 || s.dir == "" {
		return
	}
	for s.memSize > s.MaxMemBytes && s.lru.Len() > 1 {
		oldest := s.lru.Back()
		e := oldest.Value.(*storeEntry)
		s.lru.Remove(oldest)
		delete(s.mem, e.addr)
		s.memSize -= int64(len(e.data))
	}
}

// syncDir fsyncs a directory so a just-renamed entry's existence is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Len reports the number of entries resident in memory (not the backing
// directory's population); it exists for tests and stats.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}
