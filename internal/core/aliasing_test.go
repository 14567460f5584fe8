package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/apps/webserv"
	"github.com/dynacut/dynacut/internal/criu"
	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/kernel"
)

// Image sets and guest memory share page slices copy-on-write: a dump
// takes the live pages by reference and a restore installs the pages
// that are not writable by reference. These tests pin that neither
// side's writes ever reach the other.

// TestDumpSurvivesGuestStores: after criu.Dump, guest stores to the
// dumped pages (with the store fast path primed before the dump) and
// live traffic leave the set's bytes and identity unchanged.
func TestDumpSurvivesGuestStores(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 9340})
	mem := tb.proc.Mem()
	var writable []uint64
	for _, pn := range mem.PopulatedPages() {
		if v, ok := mem.VMAAt(pn * kernel.PageSize); ok && v.Perm&delf.PermW != 0 {
			writable = append(writable, pn*kernel.PageSize)
		}
	}
	if len(writable) == 0 {
		t.Fatal("guest has no populated writable page")
	}
	words := make([]uint64, len(writable))
	for i, addr := range writable {
		w, err := mem.ReadU64(addr)
		if err != nil {
			t.Fatal(err)
		}
		words[i] = w
		if err := mem.WriteU64(addr, w); err != nil { // primes the TLB write bit
			t.Fatal(err)
		}
	}

	set, err := criu.Dump(tb.m, tb.proc.PID(), criu.DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	blob, ident := set.Marshal(), set.Ident()
	if mem.SharedPageCount() == 0 {
		t.Fatal("the dump shares no page with guest memory")
	}
	check := func(after string) {
		t.Helper()
		if !bytes.Equal(set.Marshal(), blob) {
			t.Fatalf("%s changed the dumped set's bytes", after)
		}
		if got := set.Clone().Ident(); got != ident {
			t.Fatalf("%s changed the dumped set's identity: %#x, want %#x", after, got, ident)
		}
	}

	for i, addr := range writable {
		if err := mem.WriteU64(addr, ^words[i]); err != nil {
			t.Fatal(err)
		}
	}
	check("a guest store to every dumped writable page")
	for i, addr := range writable {
		if err := mem.WriteU64(addr, words[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "201") {
		t.Fatalf("PUT after the dump -> %q, want 201", got)
	}
	check("live traffic")
}

// TestRestoredPagesSurviveWrites: after a restore shares the set's
// text pages with the guest, a live patch, a host write and a bit flip
// on shared pages leave the set unchanged, and restoring the set again
// brings back its original bytes. (Guest stores into shared pages are
// TestDumpSurvivesGuestStores'; the guest cannot write its text.)
func TestRestoredPagesSurviveWrites(t *testing.T) {
	tb, blocks, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9341}, Options{})
	set, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	blob := set.Marshal()
	if _, err := c.RestoreImages(set); err != nil {
		t.Fatal(err)
	}
	root, err := tb.m.Process(c.PID())
	if err != nil {
		t.Fatal(err)
	}
	mem := root.Mem()
	pi := set.Procs[set.PIDs[0]]
	// shared lists the pages whose live slice is still the set's.
	shared := func() []uint64 {
		var pns []uint64
		for i, pn := range pi.PageMap.PageNumbers {
			if pg := mem.PageDataUnsafe(pn); pg != nil && &pg[0] == &pi.Pages[i][0] {
				pns = append(pns, pn)
			}
		}
		return pns
	}
	before := shared()
	if len(before) == 0 || len(before) != mem.SharedPageCount() {
		t.Fatalf("restore shares %d pages with the set, memory counts %d", len(before), mem.SharedPageCount())
	}
	patched := false
	for _, b := range blocks {
		patched = patched || slices.Contains(before, b.Addr/kernel.PageSize)
	}
	if !patched {
		t.Fatal("no feature block lies on a shared page")
	}

	stats, err := c.DisableBlocksLive("webdav-write", blocks, PolicyBlockEntry)
	if err != nil || !stats.LivePatched {
		t.Fatalf("live disable: %v (stats %+v)", err, stats)
	}
	text := shared()
	if len(text) < 2 {
		t.Fatalf("%d pages still shared after the live patch, want 2", len(text))
	}
	if !mem.FlipBits(text[0]*kernel.PageSize+1, 0x40) {
		t.Fatal("FlipBits found no page")
	}
	if err := mem.Write(text[1]*kernel.PageSize+2, []byte{0xCC, 0xCC}); err != nil {
		t.Fatal(err)
	}
	if left := shared(); len(left) != len(text)-2 {
		t.Fatalf("%d pages still shared after two writes to shared pages, want %d", len(left), len(text)-2)
	}
	if !bytes.Equal(set.Marshal(), blob) {
		t.Fatal("writes to the restored guest changed the set it was restored from")
	}

	// The rollback: the set restores to its original bytes.
	if _, err := c.RestoreImages(set); err != nil {
		t.Fatal(err)
	}
	root, err = tb.m.Process(c.PID())
	if err != nil {
		t.Fatal(err)
	}
	for i, pn := range pi.PageMap.PageNumbers {
		got, err := root.Mem().Read(pn*kernel.PageSize, kernel.PageSize)
		if err != nil || !bytes.Equal(got, pi.Pages[i]) {
			t.Fatalf("page %#x after the rollback restore differs from the set (%v)", pn, err)
		}
	}
	if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "201") {
		t.Fatalf("PUT after the rollback restore -> %q, want 201", got)
	}
}
