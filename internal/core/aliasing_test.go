package core

import (
	"bytes"
	"errors"
	"fmt"
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

// writablePages copies the bytes of every populated page of mem that
// lies in a writable VMA.
func writablePages(t *testing.T, mem *kernel.Memory) map[uint64][]byte {
	t.Helper()
	out := map[uint64][]byte{}
	for _, pn := range mem.PopulatedPages() {
		if v, ok := mem.VMAAt(pn * kernel.PageSize); ok && v.Perm&delf.PermW != 0 {
			pg, err := mem.Read(pn*kernel.PageSize, kernel.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			out[pn] = pg
		}
	}
	return out
}

// allPages copies the bytes of every populated page of every process
// on m, keyed by PID and page number.
func allPages(t *testing.T, m *kernel.Machine) map[[2]uint64][]byte {
	t.Helper()
	out := map[[2]uint64][]byte{}
	for _, p := range m.Processes() {
		for _, pn := range p.Mem().PopulatedPages() {
			pg, err := p.Mem().Read(pn*kernel.PageSize, kernel.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			out[[2]uint64{uint64(p.PID()), pn}] = pg
		}
	}
	return out
}

// TestFailedHealthCheckStoresRollBack: a health check that makes the
// restored guest store into every writable page it restored, and into
// its stored file, then fails, rolls the guest back to the bytes it was
// dumped with. The restore shared those pages with the rollback anchor,
// and nothing hands them to the guest before the commit.
func TestFailedHealthCheckStoresRollBack(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 9342})
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "201") {
		t.Fatalf("PUT before the rewrite -> %q, want 201", got)
	}
	want := writablePages(t, tb.proc.Mem())
	if len(want) == 0 {
		t.Fatal("guest has no populated writable page")
	}
	stored := 0
	c, err := New(tb.m, tb.proc.PID(), Options{
		RedirectTo: tb.errPathAddr(t),
		HealthCheck: func(m *kernel.Machine, pid int) error {
			p, err := m.Process(pid)
			if err != nil {
				return err
			}
			mem := p.Mem()
			for pn := range want {
				addr := pn * kernel.PageSize
				w, err := mem.ReadU64(addr)
				if err != nil {
					return err
				}
				if err := mem.WriteU64(addr, ^w); err != nil {
					return err
				}
				stored++
			}
			if resp, _, err := m.Exchange(9342, []byte("PUT /g more\n"), 2_000_000); err != nil || !strings.Contains(string(resp), "403") {
				return fmt.Errorf("PUT under the cut -> %q, %v", resp, err)
			}
			return errors.New("injected health failure")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry); !errors.Is(err, ErrRolledBack) {
		t.Fatalf("DisableBlocks with a failing health check: %v, want ErrRolledBack", err)
	}
	if stored != len(want) {
		t.Fatalf("health check stored into %d pages, want %d", stored, len(want))
	}
	root, err := tb.m.Process(c.PID())
	if err != nil {
		t.Fatal(err)
	}
	got := writablePages(t, root.Mem())
	for pn, w := range want {
		if !bytes.Equal(got[pn], w) {
			t.Fatalf("writable page %#x after the rollback differs from the dump", pn)
		}
	}
	if got := tb.request(t, "GET /\n"); !strings.Contains(got, "/f data") {
		t.Fatalf("GET after the rollback -> %q, want the file stored before the rewrite", got)
	}
}

// TestReplicaRewriteLeavesTemplateAndSibling: a clone's cuts, its
// re-enable and the PUT it then stores leave every page of the
// template it was cloned from and of a sibling clone byte-identical.
func TestReplicaRewriteLeavesTemplateAndSibling(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 9343})
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	replica, sibling := tb.m.Clone(), tb.m.Clone()
	template, siblingPages := allPages(t, tb.m), allPages(t, sibling)

	c, err := New(replica, tb.proc.PID(), Options{RedirectTo: tb.errPathAddr(t)})
	if err != nil {
		t.Fatal(err)
	}
	req := func(r, want string) {
		t.Helper()
		resp, _, err := replica.Exchange(9343, []byte(r), 2_000_000)
		if err != nil || !strings.Contains(string(resp), want) {
			t.Fatalf("replica %q -> %q, %v; want %s", r, resp, err, want)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry); err != nil {
			t.Fatal(err)
		}
		req("PUT /f data\n", "403")
		req("GET /\n", "200")
		if _, err := c.EnableBlocks("webdav-write"); err != nil {
			t.Fatal(err)
		}
		req("PUT /f data\n", "201")
	}
	for name, pair := range map[string][2]map[[2]uint64][]byte{
		"template": {template, allPages(t, tb.m)},
		"sibling":  {siblingPages, allPages(t, sibling)},
	} {
		before, after := pair[0], pair[1]
		if len(after) != len(before) {
			t.Fatalf("%s has %d populated pages, had %d", name, len(after), len(before))
		}
		for k, pg := range before {
			if !bytes.Equal(after[k], pg) {
				t.Fatalf("%s pid %d page %#x changed under the replica's rewrites", name, k[0], k[1])
			}
		}
	}
}

// TestCheckpointSurvivesCutAndTraffic: a checkpoint the caller keeps
// is byte-identical after a cut and 100 requests that store into the
// guest.
func TestCheckpointSurvivesCutAndTraffic(t *testing.T) {
	tb, blocks, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9344}, Options{})
	if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "201") {
		t.Fatalf("PUT -> %q, want 201", got)
	}
	set, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	blob := set.Marshal()
	if _, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		req, want := "GET /\n", "200"
		if i%2 == 1 {
			req, want = "PUT /f data\n", "403"
		}
		if got := tb.request(t, req); !strings.Contains(got, want) {
			t.Fatalf("request %d %q -> %q, want %s", i, req, got, want)
		}
	}
	if !bytes.Equal(set.Marshal(), blob) {
		t.Fatal("the cut and the traffic after it changed a checkpoint the caller kept")
	}
}
