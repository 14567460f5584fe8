package criu

import (
	"bytes"
	"crypto/sha256"
	"sync"
	"testing"

	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/kernel"
)

func TestPageStoreDepositMaterializeRoundTrip(t *testing.T) {
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
	if ident != set.Ident() {
		t.Fatalf("Deposit returned ident %#x, want %#x", ident, set.Ident())
	}

	got, err := store.Materialize(ident)
	if err != nil {
		t.Fatalf("deposited set does not materialize: %v", err)
	}
	if !bytes.Equal(got.Marshal(), set.Marshal()) {
		t.Fatal("materialized set is not byte-identical to the deposited one")
	}
	if got.Ident() != ident {
		t.Fatalf("materialized ident %#x, want %#x", got.Ident(), ident)
	}

	// The materialized copy is private: editing it must not corrupt a
	// second materialization.
	pi := got.Procs[got.PIDs[0]]
	if len(pi.PageMap.PageNumbers) == 0 {
		t.Fatal("no pages in image")
	}
	junk := make([]byte, kernel.PageSize)
	if err := pi.SetPage(pi.PageMap.PageNumbers[0], junk); err != nil {
		t.Fatal(err)
	}
	again, err := store.Materialize(ident)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Marshal(), set.Marshal()) {
		t.Fatal("editing a materialized set leaked into the store")
	}
}

// TestPageStoreDepositsIncrementalSet: a re-dump, whose table shares
// pages with an earlier set, deposits like any other. It materializes
// to the blob Marshal writes for it, and another dump of the same
// state deposits as the same stored set.
func TestPageStoreDepositsIncrementalSet(t *testing.T) {
	m, p := loadCounter(t)
	store := NewPageStore()

	full, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(500)
	delta, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	if sharedPages(delta.Procs[p.PID()], full.Procs[p.PID()]) == 0 {
		t.Fatal("re-dump shares no page with the earlier dump")
	}
	ident, err := store.Deposit(delta)
	if err != nil {
		t.Fatal(err)
	}
	got, err := store.Materialize(ident)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), delta.Marshal()) {
		t.Fatal("materialized re-dump differs from its blob")
	}
	fullNow, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	again, err := store.Deposit(fullNow)
	if err != nil {
		t.Fatal(err)
	}
	if again != ident || store.Stats().Sets != 1 {
		t.Fatalf("another dump of the same state deposited as %#x (%d sets), want %#x",
			again, store.Stats().Sets, ident)
	}
}

// TestPageStoreKeysSetsDifferingInOnePageByte: two sets that differ
// in a single byte of a single page are two stored sets. Each gets its
// own key, and each materializes back to its own bytes, never to the
// other's.
func TestPageStoreKeysSetsDifferingInOnePageByte(t *testing.T) {
	m, p := loadCounter(t)
	store := NewPageStore()

	a, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	pi := b.Procs[b.PIDs[0]]
	pn := pi.PageMap.PageNumbers[len(pi.PageMap.PageNumbers)/2]
	pg, err := pi.Page(pn)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), pg...)
	flipped[kernel.PageSize/3] ^= 1
	if err := pi.SetPage(pn, flipped); err != nil {
		t.Fatal(err)
	}

	idA, err := store.Deposit(a)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := store.Deposit(b)
	if err != nil {
		t.Fatal(err)
	}
	if idA == idB {
		t.Fatalf("sets differing in one page byte share the key %#x", idA)
	}
	if n := store.Stats().Sets; n != 2 {
		t.Fatalf("store holds %d sets, want 2", n)
	}
	for _, c := range []struct {
		id  [sha256.Size]byte
		set *ImageSet
	}{{idA, a}, {idB, b}} {
		got, err := store.Materialize(c.id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Marshal(), c.set.Marshal()) {
			t.Fatalf("set %#x materialized to other bytes than were deposited", c.id)
		}
	}
}

// TestPageStoreDedupSubLinearGrowth is the fleet storage claim: the
// pristine checkpoints of N replicas cloned from one template dedup to
// ~1 guest of page blobs. Stored bytes must grow sub-linearly in N —
// here, adding 15 more replicas is not allowed to even double the
// single-guest footprint.
func TestPageStoreDedupSubLinearGrowth(t *testing.T) {
	m, p := loadCounter(t)
	store := NewPageStore()

	// Give the template a realistic footprint: 64 pages of distinct
	// content that replicas inherit but never touch. The counter's own
	// data pages diverge per replica; these stay pristine and shared.
	const ballastPages = 64
	const ballastBase = uint64(0x4000_0000)
	if err := p.Mem().Map(kernel.VMA{
		Start: ballastBase, End: ballastBase + ballastPages*kernel.PageSize,
		Perm: delf.PermR | delf.PermW, Name: "ballast", Anon: true,
	}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, kernel.PageSize)
	for i := 0; i < ballastPages; i++ {
		for j := range buf {
			buf[j] = byte(i) ^ byte(j)
		}
		if err := p.Mem().Write(ballastBase+uint64(i)*kernel.PageSize, buf); err != nil {
			t.Fatal(err)
		}
	}

	var oneGuest int
	replicas := make([]*kernel.Machine, 0, 16)
	for i := 0; i < 16; i++ {
		replicas = append(replicas, m.Clone())
	}
	for i, rm := range replicas {
		// Each replica diverges slightly before its checkpoint, like a
		// fleet member serving its own traffic.
		rm.Run(uint64(100 * i))
		rp, err := rm.Process(p.PID())
		if err != nil {
			t.Fatal(err)
		}
		set, err := Dump(rm, rp.PID(), DumpOpts{ExecPages: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.Deposit(set); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			oneGuest = store.Stats().StoredBytes
		}
	}
	st := store.Stats()
	if st.DedupHits == 0 {
		t.Fatal("no page was deduplicated across 16 replica checkpoints")
	}
	if oneGuest == 0 {
		t.Fatal("first checkpoint stored nothing")
	}
	if st.StoredBytes >= 2*oneGuest {
		t.Fatalf("store grew linearly: 16 replicas cost %d bytes, 1 replica %d (want < 2x)",
			st.StoredBytes, oneGuest)
	}
	t.Logf("1 replica: %d bytes; 16 replicas: %d bytes; interned %d pages, %d dedup hits",
		oneGuest, st.StoredBytes, st.PagesInterned, st.DedupHits)
}

// TestPageStoreConcurrentDepositMaterialize is the sharding race test:
// depositors racing each other (including on the *same* set, so the
// dedup fast path and the double-checked set insert both fire) while
// readers Materialize and Stats concurrently. Run under
// -race this pins down the shard-lock discipline; the final checks pin
// down that no deposit was lost or mangled by the races.
func TestPageStoreConcurrentDepositMaterialize(t *testing.T) {
	m, p := loadCounter(t)
	store := NewPageStore()

	// Eight divergent clone checkpoints: heavy page overlap (dedup
	// contention on shared keys) plus per-replica divergence.
	const nsets = 8
	sets := make([]*ImageSet, nsets)
	for i := range sets {
		rm := m.Clone()
		rm.Run(uint64(50 * i))
		rp, err := rm.Process(p.PID())
		if err != nil {
			t.Fatal(err)
		}
		set, err := Dump(rm, rp.PID(), DumpOpts{ExecPages: true})
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = set
	}

	// Seed one set so the reader goroutines always have a target.
	ident0, err := store.Deposit(sets[0])
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range sets {
				if _, err := store.Deposit(s); err != nil {
					t.Errorf("concurrent deposit: %v", err)
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				got, err := store.Materialize(ident0)
				if err != nil {
					t.Errorf("concurrent materialize: %v", err)
					return
				}
				if got.Ident() != ident0 {
					t.Errorf("materialize under load: ident %#x, want %#x", got.Ident(), ident0)
				}
				_ = store.Stats()
			}
		}()
	}
	wg.Wait()

	// Every set survived the races, byte-identical.
	for i, s := range sets {
		got, err := store.Materialize(s.Ident())
		if err != nil {
			t.Fatalf("set %d after races: %v", i, err)
		}
		if !bytes.Equal(got.Marshal(), s.Marshal()) {
			t.Fatalf("set %d corrupted by concurrent deposits", i)
		}
	}
	// Intern accounting balances: every offered page either hit an
	// existing blob or became a unique one.
	st := store.Stats()
	if st.PagesInterned != st.DedupHits+uint64(st.UniquePages) {
		t.Fatalf("intern accounting torn by races: interned %d != hits %d + unique %d",
			st.PagesInterned, st.DedupHits, st.UniquePages)
	}
	if st.Sets != nsets {
		t.Fatalf("store holds %d sets, deposited %d", st.Sets, nsets)
	}
}
