package kernel

import (
	"crypto/sha256"
	"sort"
	"testing"

	"github.com/dynacut/dynacut/internal/delf"
)

func xVMA(start, end uint64) VMA {
	return VMA{Start: start, End: end, Perm: delf.PermR | delf.PermX, Name: "text", Anon: true}
}

// TestAttestHashPages: populated pages hash as their bytes, mapped but
// never-populated pages hash as zero pages, and hashing neither
// populates nor shares anything — it is a pure observation.
func TestAttestHashPages(t *testing.T) {
	m := newMemory()
	if err := m.Map(rwVMA(0x1000, 0x3000)); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0x1000, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	pop := len(m.PopulatedPages())

	got := m.HashPages([]uint64{1, 2})
	want := sha256.Sum256(m.PageDataUnsafe(1))
	if got[1] != want {
		t.Error("populated page digest mismatch")
	}
	if got[2] != zeroPageDigest {
		t.Error("unpopulated page should hash as a zero page")
	}
	if len(m.PopulatedPages()) != pop || m.SharedPageCount() != 0 {
		t.Error("HashPages perturbed populated/CoW state")
	}
}

// TestAttestExecPages: only populated pages inside executable VMAs are
// reported, in sorted order.
func TestAttestExecPages(t *testing.T) {
	m := newMemory()
	if err := m.Map(xVMA(0x5000, 0x8000)); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(rwVMA(0x1000, 0x2000)); err != nil {
		t.Fatal(err)
	}
	// Populate the data page and two of the three text pages, written
	// out of address order.
	m.breakCoW(1)
	if err := m.SetPage(1, make([]byte, PageSize)); err != nil {
		t.Fatal(err)
	}
	for _, pn := range []uint64{7, 5} {
		pg := make([]byte, PageSize)
		pg[0] = byte(pn)
		if err := m.SetPage(pn, pg); err != nil {
			t.Fatal(err)
		}
	}
	got := m.ExecPages()
	if len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("ExecPages = %v, want [5 7]", got)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("ExecPages not sorted")
	}
}

// TestAttestFlipBitsSilentAndPrivate: FlipBits corrupts the live bytes
// without flushing a cached block (silent by construction) and breaks
// CoW first so neither a sibling nor a dump sharing the page ever sees
// the flip.
func TestAttestFlipBitsSilentAndPrivate(t *testing.T) {
	m := newMemory()
	if err := m.Map(xVMA(0x1000, 0x2000)); err != nil {
		t.Fatal(err)
	}
	pg := make([]byte, PageSize)
	pg[8] = 0x10
	if err := m.SetPage(1, pg); err != nil {
		t.Fatal(err)
	}
	sib := m.CloneCoW()
	snap := m.SharePage(1)

	if m.FlipBits(0x1008, 0x80) != true {
		t.Fatal("FlipBits refused a populated page")
	}
	if got := m.PageDataUnsafe(1)[8]; got != 0x90 {
		t.Fatalf("flipped byte = %#x, want 0x90", got)
	}
	if got := sib.PageDataUnsafe(1)[8]; got != 0x10 {
		t.Fatalf("flip leaked into a CoW sibling: %#x", got)
	}
	if snap[8] != 0x10 {
		t.Fatalf("flip leaked into a dumped page: %#x", snap[8])
	}
	if m.FlipBits(0x9000, 0x01) {
		t.Error("FlipBits claimed to corrupt an unpopulated page")
	}
}
