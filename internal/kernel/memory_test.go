package kernel

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"github.com/dynacut/dynacut/internal/delf"
)

func rwVMA(start, end uint64) VMA {
	return VMA{Start: start, End: end, Perm: delf.PermR | delf.PermW, Name: "test", Anon: true}
}

func TestMapAndRW(t *testing.T) {
	m := newMemory()
	if err := m.Map(rwVMA(0x1000, 0x3000)); err != nil {
		t.Fatal(err)
	}
	data := []byte{1, 2, 3, 4}
	if err := m.Write(0x1ffe, data); err != nil { // crosses page boundary
		t.Fatal(err)
	}
	got, err := m.Read(0x1ffe, 4)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Read = %v, %v", got, err)
	}
	if _, err := m.Read(0x4000, 1); !errors.Is(err, ErrUnmapped) {
		t.Errorf("read unmapped err = %v", err)
	}
	if err := m.Write(0x2ffd, data); !errors.Is(err, ErrUnmapped) {
		t.Errorf("write past end err = %v", err)
	}
}

func TestMapValidation(t *testing.T) {
	m := newMemory()
	if err := m.Map(rwVMA(0x1000, 0x1000)); err == nil {
		t.Error("empty VMA accepted")
	}
	if err := m.Map(VMA{Start: 0x1001, End: 0x2000}); err == nil {
		t.Error("unaligned VMA accepted")
	}
	if err := m.Map(rwVMA(0x1000, 0x3000)); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(rwVMA(0x2000, 0x4000)); !errors.Is(err, ErrVMAOverlap) {
		t.Errorf("overlap err = %v", err)
	}
}

func TestProtect(t *testing.T) {
	m := newMemory()
	for _, v := range []VMA{
		{Start: 0x1000, End: 0x2000, Perm: delf.PermR | delf.PermX, Name: "text"},
		{Start: 0x2000, End: 0x3000, Perm: delf.PermR, Name: "rodata"},
	} {
		if err := m.Map(v); err != nil {
			t.Fatal(err)
		}
	}
	var buf [1]byte
	if _, err := m.fetch(0x2000, buf[:]); !errors.Is(err, ErrPerm) {
		t.Errorf("fetch from NX err = %v", err)
	}
	if _, err := m.fetch(0x1000, buf[:]); err != nil {
		t.Errorf("fetch from X err = %v", err)
	}
}

func TestGuestPermChecks(t *testing.T) {
	m := newMemory()
	if err := m.Map(VMA{Start: 0x1000, End: 0x2000, Perm: delf.PermR, Name: "ro"}); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteGuest(0x1000, []byte{1}); !errors.Is(err, ErrPerm) {
		t.Errorf("guest write to RO err = %v", err)
	}
	if _, err := m.ReadGuest(0x1000, 8); err != nil {
		t.Errorf("guest read err = %v", err)
	}
	// Kernel view bypasses permissions.
	if err := m.Write(0x1000, []byte{1}); err != nil {
		t.Errorf("kernel write err = %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := newMemory()
	if err := m.Map(rwVMA(0x1000, 0x2000)); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0x1000, []byte{42}); err != nil {
		t.Fatal(err)
	}
	c := m.CloneCoW()
	if err := c.Write(0x1000, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if b, _ := m.Read(0x1000, 1); b[0] != 42 {
		t.Error("clone write leaked into original")
	}
	if err := c.Map(rwVMA(0x2000, 0x3000)); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.VMAAt(0x2000); ok {
		t.Error("clone map affected original")
	}
}

func TestU64RoundTrip(t *testing.T) {
	m := newMemory()
	if err := m.Map(rwVMA(0x1000, 0x2000)); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteU64(0x1008, 0xdeadbeefcafef00d); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadU64(0x1008)
	if err != nil || v != 0xdeadbeefcafef00d {
		t.Fatalf("ReadU64 = %#x, %v", v, err)
	}
}

func TestPopulatedPagesAndSetPage(t *testing.T) {
	m := newMemory()
	if err := m.Map(rwVMA(0x1000, 0x10000)); err != nil {
		t.Fatal(err)
	}
	if got := m.PopulatedPages(); len(got) != 0 {
		t.Fatalf("fresh mapping already populated: %v", got)
	}
	if err := m.Write(0x3000, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0x5500, []byte{1}); err != nil {
		t.Fatal(err)
	}
	got := m.PopulatedPages()
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("PopulatedPages = %v", got)
	}
	if m.PageDataUnsafe(3) == nil || m.PageDataUnsafe(4) != nil {
		t.Error("PageDataUnsafe wrong")
	}
	if err := m.SetPage(7, make([]byte, PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := m.SetPage(8, make([]byte, 7)); err == nil {
		t.Error("short SetPage accepted")
	}
}

// TestPageDataUnsafeAliases: the page accessor hands out live guest
// memory by reference, so a caller that wants to mutate must copy.
func TestPageDataUnsafeAliases(t *testing.T) {
	m := newMemory()
	if err := m.Map(rwVMA(0x1000, 0x4000)); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0x1000, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	raw := m.PageDataUnsafe(1)
	if raw == nil || raw[0] != 0xAA {
		t.Fatalf("PageDataUnsafe(1) = %v", raw)
	}
	cp := append([]byte(nil), raw...)
	cp[0] = 0x55
	if live, _ := m.Read(0x1000, 1); live[0] != 0xAA {
		t.Fatalf("a copy aliased live memory: %#x", live[0])
	}
	raw[0] = 0x66
	if live, _ := m.Read(0x1000, 1); live[0] != 0x66 {
		t.Fatalf("PageDataUnsafe did not alias live memory: %#x", live[0])
	}
}

// TestDirtyPageTracking: a page a dump took by SharePage keeps the
// dump's bytes. The first store after the share, host or guest, gives
// the page private backing; a later store writes that backing in place
// and copies nothing, until the next SharePage shares it again.
func TestDirtyPageTracking(t *testing.T) {
	m := newMemory()
	if err := m.Map(rwVMA(0x1000, 0x10000)); err != nil {
		t.Fatal(err)
	}
	for _, store := range []struct {
		name  string
		write func(addr uint64, v byte) error
	}{
		{"host", func(addr uint64, v byte) error { return m.Write(addr, []byte{v}) }},
		{"guest", m.WriteU8},
	} {
		if err := store.write(0x3000, 1); err != nil {
			t.Fatal(err)
		}
		snap := m.SharePage(3)
		snapped := bytes.Clone(snap)
		if &snap[0] != &m.PageDataUnsafe(3)[0] || m.SharedPageCount() != 1 {
			t.Fatalf("%s: SharePage copied the page or did not mark it shared", store.name)
		}
		if err := store.write(0x3000, 2); err != nil {
			t.Fatal(err)
		}
		first := m.PageDataUnsafe(3)
		if &first[0] == &snap[0] || !bytes.Equal(snap, snapped) || first[0] != 2 || m.SharedPageCount() != 0 {
			t.Fatalf("%s: first store after the share: snapshot %d, live %d, shared %d",
				store.name, snap[0], first[0], m.SharedPageCount())
		}
		if err := store.write(0x3001, snapped[1]+1); err != nil {
			t.Fatal(err)
		}
		if later := m.PageDataUnsafe(3); &later[0] != &first[0] || later[1] != snapped[1]+1 || !bytes.Equal(snap, snapped) {
			t.Fatalf("%s: a later store copied the page again or reached the snapshot", store.name)
		}
	}
	// Reads share nothing and copy nothing.
	before := &m.PageDataUnsafe(3)[0]
	if _, err := m.Read(0x3000, 8); err != nil {
		t.Fatal(err)
	}
	if &m.PageDataUnsafe(3)[0] != before || m.SharedPageCount() != 0 {
		t.Fatal("a read changed the page's backing")
	}
	// An unpopulated page has nothing to share.
	if m.SharePage(9) != nil {
		t.Fatal("SharePage populated a page")
	}
}

// Property: writes then reads at random offsets round-trip inside a
// mapped region.
func TestQuickMemoryRoundTrip(t *testing.T) {
	m := newMemory()
	if err := m.Map(rwVMA(0x10000, 0x20000)); err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		addr := 0x10000 + uint64(off)%0x8000
		if err := m.Write(addr, data); err != nil {
			return false
		}
		got, err := m.Read(addr, len(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: VMA table stays sorted and non-overlapping under map
// sequences, overlapping ones refused.
func TestQuickVMAInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		m := newMemory()
		for _, op := range ops {
			start := uint64(op%64) * PageSize
			n := uint64(op/64%8+1) * PageSize
			_ = m.Map(VMA{Start: start, End: start + n, Perm: delf.PermR, Name: "q"})
			vmas := m.VMAs()
			for i := 1; i < len(vmas); i++ {
				if vmas[i-1].End > vmas[i].Start {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
