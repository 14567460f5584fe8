package criu

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/kernel"
)

// The store's integrity contract: a content key IS the checksum of its
// blob, every read re-hashes, and any divergence surfaces as a typed
// ErrStoreCorrupt naming the set and pid — never as silently wrong
// restored bytes.

// TestPageStoreCorruptMutatedShard: mutating a stored blob in place
// (simulated disk rot with no fault machinery at all) makes the next
// Materialize of every set referencing it fail loudly with
// ErrStoreCorrupt, carrying the set ident and pid in its message.
func TestPageStoreCorruptMutatedShard(t *testing.T) {
	m, p := loadCounter(t)
	store := NewPageStore()
	set, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	ident, err := store.Deposit(set)
	if err != nil {
		t.Fatal(err)
	}

	// Rot one blob directly in the shard map.
	var rotted bool
	for i := range store.shards {
		sh := &store.shards[i]
		sh.mu.Lock()
		for key, pg := range sh.pages {
			pg[17] ^= 0x01
			_ = key
			rotted = true
			break
		}
		sh.mu.Unlock()
		if rotted {
			break
		}
	}
	if !rotted {
		t.Fatal("store held no blobs to rot")
	}

	_, err = store.Materialize(ident)
	if !errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("Materialize over a rotted blob: %v, want ErrStoreCorrupt", err)
	}
	if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("%#x", ident)) ||
		!strings.Contains(msg, fmt.Sprintf("pid %d", p.PID())) {
		t.Fatalf("corruption error lacks set/pid context: %q", msg)
	}
}

// TestPageStoreCorruptRotFaultSite: the SiteStoreRot fault silently
// flips a bit of the stored slice during a read — the fault itself
// returns no error anywhere — and the same read's re-hash is what turns
// it loud. The rot is persistent: the blob stays rotten after the hook
// is removed, exactly like real bit decay on an image store.
func TestPageStoreCorruptRotFaultSite(t *testing.T) {
	m, p := loadCounter(t)
	store := NewPageStore()
	set, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	ident, err := store.Deposit(set)
	if err != nil {
		t.Fatal(err)
	}

	// Clean read first: the deposited set materializes byte-identically.
	clean, err := store.Materialize(ident)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTable(clean.Procs[p.PID()], set.Procs[p.PID()]) {
		t.Fatal("clean materialize diverged from the deposited set")
	}

	inj := faultinject.New(1)
	inj.FailAt(faultinject.SiteStoreRot, 1)
	store.SetFaultHook(inj)
	if _, err := store.Materialize(ident); !errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("Materialize under rot fault: %v, want ErrStoreCorrupt", err)
	}
	if inj.Injected() == 0 {
		t.Fatal("rot fault never fired")
	}

	// Hook gone, rot stays: the corruption lives in the store, not the
	// fault machinery.
	store.SetFaultHook(nil)
	if _, err := store.Materialize(ident); !errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("Materialize after rot persisted: %v, want ErrStoreCorrupt", err)
	}

}

// TestPageStoreCorruptPageBlobVerified: the single-page repair path
// (DepositPage / PageBlob) enforces the same contract — verified reads,
// private copies, typed errors for bad input and missing keys.
func TestPageStoreCorruptPageBlobVerified(t *testing.T) {
	store := NewPageStore()
	pg := make([]byte, kernel.PageSize)
	for i := range pg {
		pg[i] = byte(i * 7)
	}
	key, err := store.DepositPage(pg)
	if err != nil {
		t.Fatal(err)
	}
	if key != sha256.Sum256(pg) {
		t.Fatal("DepositPage key is not the content hash")
	}

	got, err := store.PageBlob(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pg) {
		t.Fatal("PageBlob returned different bytes")
	}
	// Private copy: scribbling on the returned slice must not rot the
	// store.
	got[0] ^= 0xff
	again, err := store.PageBlob(key)
	if err != nil {
		t.Fatalf("PageBlob after caller scribble: %v", err)
	}
	if !bytes.Equal(again, pg) {
		t.Fatal("caller mutation leaked into the store")
	}

	if _, err := store.DepositPage(pg[:kernel.PageSize-1]); !errors.Is(err, ErrBadImage) {
		t.Fatalf("short DepositPage: %v, want ErrBadImage", err)
	}
	var missing [sha256.Size]byte
	if _, err := store.PageBlob(missing); !errors.Is(err, ErrNoImage) {
		t.Fatalf("PageBlob of unknown key: %v, want ErrNoImage", err)
	}

	// Rot the interned blob in place: PageBlob's re-hash catches it.
	sh := store.shard(key)
	sh.mu.Lock()
	sh.pages[key][100] ^= 0x08
	sh.mu.Unlock()
	if _, err := store.PageBlob(key); !errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("PageBlob over rotted blob: %v, want ErrStoreCorrupt", err)
	}
}
