package criu

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/kernel"
)

// ErrStoreCorrupt reports a content-addressed blob whose bytes no
// longer hash to its key: the store rotted underneath us. Every blob
// read re-hashes (the key IS the checksum), so rot is caught at the
// first read instead of being silently restored into a live guest.
var ErrStoreCorrupt = errors.New("criu: page store blob corrupt")

// PageStore is a content-addressed blob store for checkpoint images:
// every page is keyed by the SHA-256 of its contents, so identical
// pages — e.g. the pristine checkpoints of N replicas cloned from one
// template guest — are stored once however many image sets reference
// them. It is the fleet layer's shared storage backend: depositing N
// clone checkpoints costs ~1 guest of page blobs plus per-set
// metadata, and any deposited set can be re-materialized for restore.
//
// All methods are safe for concurrent use. The page map is sharded by
// hash prefix (the first key byte picks the bucket), so a rollout
// controller's worker pool — hundreds of concurrent Deposit and
// Materialize calls at fleet scale — contends on independent bucket
// locks instead of serializing on one map.
type PageStore struct {
	shards []pageShard

	setMu sync.RWMutex
	sets  map[[sha256.Size]byte]*storedSet

	hookMu sync.Mutex
	hook   kernel.FaultHook // consulted at SiteStoreRot on blob reads

	interned atomic.Uint64 // pages presented to the store
	hits     atomic.Uint64 // pages already present (dedup wins)
}

// pageShard is one hash-prefix bucket of the page map.
type pageShard struct {
	mu    sync.Mutex
	pages map[[sha256.Size]byte][]byte
}

// defaultPageShards is the bucket count — a power of two so the
// prefix mask is a single AND. 64 buckets keep 1000+ workers' expected
// lock collisions low while costing ~nothing for small stores.
const defaultPageShards = 64

// storedSet is one deposited image set: a deep copy of its metadata
// with every Pages nil, and for each entry of its PIDs the content keys
// of that process's pages.
type storedSet struct {
	shell *ImageSet
	keys  [][][sha256.Size]byte
}

// StoreStats is a snapshot of the store's dedup accounting.
type StoreStats struct {
	// Sets is how many image sets the store holds.
	Sets int
	// UniquePages / StoredBytes measure what the store actually keeps.
	UniquePages int
	StoredBytes int
	// PagesInterned / DedupHits measure what was offered: every page of
	// every deposit, and how many of those were already present.
	PagesInterned uint64
	DedupHits     uint64
}

// NewPageStore creates an empty content-addressed page store.
func NewPageStore() *PageStore { return newPageStoreShards(defaultPageShards) }

// newPageStoreShards sizes the hash-prefix bucket count explicitly —
// the sharding benchmark's before/after lever. n is rounded down to a
// power of two, minimum 1 (the pre-sharding single-lock behavior).
func newPageStoreShards(n int) *PageStore {
	shards := 1
	for shards*2 <= n {
		shards *= 2
	}
	s := &PageStore{
		shards: make([]pageShard, shards),
		sets:   map[[sha256.Size]byte]*storedSet{},
	}
	for i := range s.shards {
		s.shards[i].pages = map[[sha256.Size]byte][]byte{}
	}
	return s
}

// shard picks the bucket owning a content key by hash prefix.
func (s *PageStore) shard(key [sha256.Size]byte) *pageShard {
	return &s.shards[int(key[0])&(len(s.shards)-1)]
}

// SetFaultHook installs a fault hook consulted on every blob read
// (SiteStoreRot). A fired fault rots the stored blob in place — the
// rot is persistent, exactly like bit decay on a real image store —
// and the read continues as if nothing happened; the re-hash check is
// what turns it into a loud ErrStoreCorrupt.
func (s *PageStore) SetFaultHook(h kernel.FaultHook) {
	s.hookMu.Lock()
	s.hook = h
	s.hookMu.Unlock()
}

// readBlob fetches one page blob, applies any armed silent-rot fault,
// and re-hashes the bytes against the content key. The key is the
// checksum: any divergence is corruption by definition.
func (s *PageStore) readBlob(key [sha256.Size]byte) ([]byte, error) {
	s.hookMu.Lock()
	hook := s.hook
	s.hookMu.Unlock()
	sh := s.shard(key)
	sh.mu.Lock()
	pg, ok := sh.pages[key]
	if ok && hook != nil {
		if ferr := hook.Fault(faultinject.SiteStoreRot, int(key[0])); ferr != nil {
			// Silent rot: flip one bit of the *stored* slice. Future
			// reads of this blob see the same rotten bytes.
			pg[len(pg)/2] ^= 0x40
		}
	}
	sh.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: no blob for key %x", ErrNoImage, key[:8])
	}
	if sha256.Sum256(pg) != key {
		return nil, fmt.Errorf("%w: key %x", ErrStoreCorrupt, key[:8])
	}
	return pg, nil
}

// PageBlob returns a private copy of one page blob by content key,
// re-hash-verified like every store read. This is the anti-entropy
// repair path's source of truth: an attestation oracle's expected
// page digest is a store key, so the expected bytes are one lookup
// away.
func (s *PageStore) PageBlob(key [sha256.Size]byte) ([]byte, error) {
	pg, err := s.readBlob(key)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), pg...), nil
}

// DepositPage interns a single page outside any image set and returns
// its content key. The attestation oracle deposits each text page's
// expected content at commit time so a later repair can materialize
// it by digest.
func (s *PageStore) DepositPage(pg []byte) ([sha256.Size]byte, error) {
	if len(pg) != kernel.PageSize {
		return [sha256.Size]byte{}, fmt.Errorf("%w: page blob is %d bytes, want %d", ErrBadImage, len(pg), kernel.PageSize)
	}
	key := sha256.Sum256(pg)
	s.intern(key, pg)
	return key, nil
}

// intern stores one page under its content key, the SHA-256 of pg,
// unless it is already present.
func (s *PageStore) intern(key [sha256.Size]byte, pg []byte) {
	s.interned.Add(1)
	sh := s.shard(key)
	sh.mu.Lock()
	if _, ok := sh.pages[key]; ok {
		s.hits.Add(1)
	} else {
		sh.pages[key] = append([]byte(nil), pg...)
	}
	sh.mu.Unlock()
}

// cloneProcShell deep-copies a proc image's metadata, leaving Pages
// nil: the store keeps page payloads only under their content keys.
func cloneProcShell(pi *ProcImage) *ProcImage {
	c := &ProcImage{
		Core:  pi.Core,
		Files: FilesImage{Files: append([]FileEntry(nil), pi.Files.Files...)},
	}
	c.Core.Sigs = append([]SigEntry(nil), pi.Core.Sigs...)
	c.Core.SysFilter = append([]uint64(nil), pi.Core.SysFilter...)
	c.MM.VMAs = append([]VMAEntry(nil), pi.MM.VMAs...)
	c.MM.Modules = append([]ModuleEntry(nil), pi.MM.Modules...)
	c.PageMap.PageNumbers = append([]uint64(nil), pi.PageMap.PageNumbers...)
	return c
}

// Deposit interns an image set: every page is stored under its
// content hash (duplicates shared, not copied) and the set's structure
// is recorded under its Ident. Depositing a set that is already
// present stores nothing. Returns the set's identity.
func (s *PageStore) Deposit(set *ImageSet) ([sha256.Size]byte, error) {
	if set == nil {
		return [sha256.Size]byte{}, fmt.Errorf("%w: nil image set", ErrBadImage)
	}
	// Validate before interning so a bad set deposits nothing.
	for pid, pi := range set.Procs {
		if msg := pi.tableError(); msg != "" {
			return [sha256.Size]byte{}, fmt.Errorf("%w: pid %d: %s", ErrBadImage, pid, msg)
		}
	}
	ident, pageKeys := set.digest()

	s.setMu.RLock()
	_, ok := s.sets[ident]
	s.setMu.RUnlock()
	if ok {
		return ident, nil
	}

	shell := &ImageSet{PIDs: slices.Clone(set.PIDs), Procs: make(map[int]*ProcImage, len(set.PIDs))}
	for i, pid := range set.PIDs {
		for j, pg := range set.Procs[pid].Pages {
			s.intern(pageKeys[i][j], pg)
		}
		shell.Procs[pid] = cloneProcShell(set.Procs[pid])
	}

	s.setMu.Lock()
	if _, ok := s.sets[ident]; !ok {
		s.sets[ident] = &storedSet{shell: shell, keys: pageKeys}
	}
	s.setMu.Unlock()
	return ident, nil
}

// Materialize rebuilds a deposited image set, re-assembling page
// payloads from the shared blobs. The returned set is private to the
// caller: mutating it (crit edits) does not touch the store.
func (s *PageStore) Materialize(ident [sha256.Size]byte) (*ImageSet, error) {
	s.setMu.RLock()
	st, ok := s.sets[ident]
	s.setMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: set %#x not in page store", ErrNoImage, ident)
	}
	set := st.shell.Clone()
	for i, pid := range set.PIDs {
		buf := make([]byte, 0, len(st.keys[i])*kernel.PageSize)
		for _, key := range st.keys[i] {
			pg, err := s.readBlob(key)
			switch {
			case errors.Is(err, ErrStoreCorrupt):
				return nil, fmt.Errorf("set %#x pid %d: %w", ident, pid, err)
			case err != nil:
				return nil, fmt.Errorf("%w: page blob missing for set %#x pid %d", ErrCorruptImage, ident, pid)
			}
			buf = append(buf, pg...)
		}
		set.Procs[pid].Pages = splitPages(buf)
	}
	return set, nil
}

// Stats returns a snapshot of the store's dedup accounting.
func (s *PageStore) Stats() StoreStats {
	stats := StoreStats{
		PagesInterned: s.interned.Load(),
		DedupHits:     s.hits.Load(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		stats.UniquePages += len(sh.pages)
		for _, pg := range sh.pages {
			stats.StoredBytes += len(pg)
		}
		sh.mu.Unlock()
	}
	s.setMu.RLock()
	stats.Sets = len(s.sets)
	s.setMu.RUnlock()
	return stats
}
