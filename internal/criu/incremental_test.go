package criu

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"github.com/dynacut/dynacut/internal/criu/pbuf"
	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/kernel"
)

// loadCounter boots the counter guest and returns the machine and
// process, with some initial progress so memory is non-trivial.
func loadCounter(t testing.TB) (*kernel.Machine, *kernel.Process) {
	t.Helper()
	m := kernel.NewMachine()
	exe := buildExe(t, "counter", counterSrc)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(2000)
	return m, p
}

// sameTable reports whether two proc images hold the same page
// numbers with the same page bytes.
func sameTable(a, b *ProcImage) bool {
	return slices.Equal(a.PageMap.PageNumbers, b.PageMap.PageNumbers) &&
		slices.EqualFunc(a.Pages, b.Pages, bytes.Equal)
}

// sharedPages counts the pages of pi whose slice is the very slice
// prev holds for that page number.
func sharedPages(pi, prev *ProcImage) int {
	n := 0
	for i, pn := range pi.PageMap.PageNumbers {
		j, ok := slices.BinarySearch(prev.PageMap.PageNumbers, pn)
		if ok && &pi.Pages[i][0] == &prev.Pages[j][0] {
			n++
		}
	}
	return n
}

// assertSameMemory fails unless two processes have the same populated
// pages with the same contents.
func assertSameMemory(t *testing.T, got, want *kernel.Process) {
	t.Helper()
	gm, wm := got.Mem(), want.Mem()
	gPages, wPages := gm.PopulatedPages(), wm.PopulatedPages()
	if !slices.Equal(gPages, wPages) {
		t.Fatalf("restored page sets differ: %d vs %d pages", len(gPages), len(wPages))
	}
	for _, pn := range wPages {
		if !bytes.Equal(gm.PageDataUnsafe(pn), wm.PageDataUnsafe(pn)) {
			t.Fatalf("restored page %d contents differ", pn)
		}
	}
}

// scribble writes a few random bytes at random places of p's VMAs
// that keep passes, the way a guest dirties pages between two dumps.
func scribble(t *testing.T, rng *rand.Rand, p *kernel.Process, n int, keep func(kernel.VMA) bool) {
	t.Helper()
	vmas := slices.DeleteFunc(p.Mem().VMAs(), func(v kernel.VMA) bool { return !keep(v) })
	for i := 0; i < n; i++ {
		v := vmas[rng.Intn(len(vmas))]
		addr := v.Start + uint64(rng.Int63n(int64(v.End-v.Start)))
		buf := make([]byte, 1+rng.Intn(32))
		rng.Read(buf)
		if addr+uint64(len(buf)) > v.End {
			buf = buf[:v.End-addr]
		}
		if err := p.Mem().Write(addr, buf); err != nil {
			t.Fatalf("write %#x: %v", addr, err)
		}
	}
}

// TestIncrementalDumpSkipsCleanPages: a dump copies no page — every
// slice in its table is the live page's own backing — and a re-dump
// shares, pointer-identical, every slice of a page the guest has not
// written since the previous dump.
func TestIncrementalDumpSkipsCleanPages(t *testing.T) {
	m, p := loadCounter(t)
	mem := p.Mem()

	first, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	fpi := first.Procs[p.PID()]
	if first.PagesDumped == 0 || first.PagesDumped != len(fpi.Pages) {
		t.Fatalf("dump took %d pages for a table of %d", first.PagesDumped, len(fpi.Pages))
	}

	// Run briefly: the guest writes its counter page; its text stays
	// clean.
	m.Run(500)

	next, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	npi := next.Procs[p.PID()]
	if !slices.Equal(npi.PageMap.PageNumbers, fpi.PageMap.PageNumbers) {
		t.Fatal("the re-dump's page table covers other pages")
	}
	text := 0
	for i, pn := range npi.PageMap.PageNumbers {
		if &npi.Pages[i][0] != &mem.PageDataUnsafe(pn)[0] {
			t.Fatalf("page %d was copied, not shared with live memory", pn)
		}
		if v, _ := mem.VMAAt(pn * kernel.PageSize); v.Perm&delf.PermW == 0 {
			text++
			if &npi.Pages[i][0] != &fpi.Pages[i][0] {
				t.Fatalf("unwritten page %d is not the previous dump's slice", pn)
			}
		}
	}
	counter := counterAddr(t) / kernel.PageSize
	was, _ := fpi.Page(counter)
	now, _ := npi.Page(counter)
	if &was[0] == &now[0] || bytes.Equal(was, now) {
		t.Fatal("the written counter page still holds the previous dump's bytes")
	}
	if got := sharedPages(npi, fpi); text == 0 || got < text || got == len(npi.Pages) {
		t.Fatalf("re-dump shares %d of %d pages with the previous dump (%d unwritten text pages)", got, len(npi.Pages), text)
	}

	// An immediately repeated dump of the idle guest shares every page.
	idle, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := sharedPages(idle.Procs[p.PID()], npi); got != len(npi.Pages) {
		t.Fatalf("idle re-dump shares %d of %d pages", got, len(npi.Pages))
	}
}

// TestFullVsDeltaRestoreEquivalence is the property test: after an
// arbitrary mix of guest execution and direct memory writes since an
// earlier dump, two consecutive dumps hold the same table, the later
// one sharing every page slice of the earlier, and restoring either
// gives the same registers and memory.
func TestFullVsDeltaRestoreEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, p := loadCounter(t)

		if _, err := Dump(m, p.PID(), DumpOpts{ExecPages: true}); err != nil {
			t.Fatal(err)
		}
		m.Run(uint64(rng.Intn(3000)))
		scribble(t, rng, p, 1+rng.Intn(20), func(kernel.VMA) bool { return true })

		a, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
		if err != nil {
			t.Fatal(err)
		}

		for _, pid := range b.PIDs {
			bp, ap := b.Procs[pid], a.Procs[pid]
			if ap == nil {
				t.Fatalf("seed %d: pid %d missing from the earlier dump", seed, pid)
			}
			if !sameTable(bp, ap) || sharedPages(bp, ap) != len(bp.Pages) {
				t.Fatalf("seed %d: pid %d page tables diverge", seed, pid)
			}
			if bp.Core.Regs != ap.Core.Regs || bp.Core.RIP != ap.Core.RIP {
				t.Fatalf("seed %d: pid %d register state diverges", seed, pid)
			}
			if len(bp.Files.Files) != len(ap.Files.Files) {
				t.Fatalf("seed %d: pid %d descriptors diverge", seed, pid)
			}
		}

		// And the restored machines agree byte for byte.
		if err := m.Kill(p.PID()); err != nil {
			t.Fatal(err)
		}
		fromA, _, err := Restore(m, a)
		if err != nil {
			t.Fatalf("seed %d: restore earlier dump: %v", seed, err)
		}
		fromB, _, err := Restore(m, b)
		if err != nil {
			t.Fatalf("seed %d: restore later dump: %v", seed, err)
		}
		assertSameMemory(t, fromA[0], fromB[0])
		if fromA[0].RIP() != fromB[0].RIP() {
			t.Fatalf("seed %d: restored RIPs diverge", seed)
		}
	}
}

// TestParallelMarshalDeterministic: marshal and unmarshal must keep
// the blob byte-identical — across repeated Marshal calls and across
// independent dumps of the same machine state. (The name predates the
// serial pipeline: marshal and unmarshal once fanned out per process.)
func TestParallelMarshalDeterministic(t *testing.T) {
	m, p := loadCounter(t)

	a, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Marshal(), a.Marshal()) {
		t.Fatal("repeated Marshal of one set differs")
	}
	if !bytes.Equal(a.Marshal(), b.Marshal()) {
		t.Fatal("independent dumps of the same machine marshal differently")
	}

	// A re-dump, sharing the clean pages of a, marshals
	// deterministically too.
	m.Run(500)
	d1, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1.Marshal(), d1.Marshal()) {
		t.Fatal("repeated Marshal of a re-dump differs")
	}

	// Round trip: the re-decoded set re-marshals to the same bytes.
	blob := d1.Marshal()
	back, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, back.Marshal()) {
		t.Fatal("unmarshal/marshal round trip not byte-identical")
	}
}

// TestDeltaBlobSelfContained: a re-dump's blob, though its table
// shares pages with an earlier set, is exactly the blob of another
// dump of the same state, it restores on a fresh machine with no
// earlier set in sight, and a blob that carries a field of the retired
// incremental format is refused at decode.
func TestDeltaBlobSelfContained(t *testing.T) {
	m, p := loadCounter(t)
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
	fullNow, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	blob := delta.Marshal()
	if !bytes.Equal(blob, fullNow.Marshal()) {
		t.Fatal("re-dump's blob differs from another dump's blob")
	}

	back, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	dst := kernel.NewMachine()
	bin, err := m.ReadFile("counter")
	if err != nil {
		t.Fatal(err)
	}
	dst.WriteFile("counter", bin)
	if err := back.Validate(dst); err != nil {
		t.Fatalf("decoded re-dump blob does not validate: %v", err)
	}
	counter := counterAddr(t)
	want, err := p.Mem().ReadU64(counter)
	if err != nil {
		t.Fatal(err)
	}
	restored, _, err := Restore(dst, back)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored[0].Mem().ReadU64(counter)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("restored counter = %d, want %d", got, want)
	}

	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"parent-ref", handBlob(fullNow, true, nil)},
		{"delta-field", handBlob(fullNow, false, func(e *pbuf.Encoder) { e.Bool(8, true) })},
		{"holes-field", handBlob(fullNow, false, func(e *pbuf.Encoder) { e.Uint(9, 0x400) })},
	} {
		if _, err := Unmarshal(tc.blob); !errors.Is(err, ErrBadImage) {
			t.Errorf("%s: Unmarshal = %v, want ErrBadImage", tc.name, err)
		}
	}
	if _, err := Unmarshal(handBlob(fullNow, false, nil)); err != nil {
		t.Fatalf("hand-encoded full blob does not decode: %v", err)
	}
}

// handBlob encodes set the way Marshal frames it, optionally preceded
// by a top-level parent reference (field 2) and with extra fields
// appended to every proc body under a valid checksum — the incremental
// wire form no blob may carry.
func handBlob(set *ImageSet, parentRef bool, extra func(e *pbuf.Encoder)) []byte {
	var e pbuf.Encoder
	if parentRef {
		e.Msg(2, func(re *pbuf.Encoder) { re.Uint(1, 0x1234) })
	}
	for _, pid := range set.PIDs {
		var be pbuf.Encoder
		be.Raw(marshalProcBody(pid, set.Procs[pid]))
		if extra != nil {
			extra(&be)
		}
		body := be.Finish()
		e.Msg(1, func(pe *pbuf.Encoder) {
			pe.Raw(body)
			pe.Uint(checksumField, uint64(crc32.Checksum(body, crcTable)))
		})
	}
	return e.Finish()
}

func counterAddr(t *testing.T) uint64 {
	t.Helper()
	exe := buildExe(t, "counter", counterSrc)
	sym, err := exe.Symbol("counter")
	if err != nil {
		t.Fatal(err)
	}
	return sym.Value
}

// TestLongIncrementalRunStaysIncremental: a running guest dumped 24
// times in a row shares its clean text with the dump before every
// time, and restoring the last set leaves the same memory as restoring
// another dump of the same state.
func TestLongIncrementalRunStaysIncremental(t *testing.T) {
	const dumps = 24
	rng := rand.New(rand.NewSource(1))
	m, p := loadCounter(t)
	set, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= dumps; i++ {
		m.Run(200)
		// Text stays clean, so every dump has a page to share.
		scribble(t, rng, p, 1+rng.Intn(4), func(v kernel.VMA) bool { return v.Perm&delf.PermX == 0 })
		next, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
		if err != nil {
			t.Fatal(err)
		}
		if sharedPages(next.Procs[p.PID()], set.Procs[p.PID()]) == 0 {
			t.Fatalf("dump %d shares no page with the dump before", i)
		}
		set = next
	}
	full, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kill(p.PID()); err != nil {
		t.Fatal(err)
	}
	fromDelta, _, err := Restore(m, set)
	if err != nil {
		t.Fatalf("restore dump %d: %v", dumps, err)
	}
	fromFull, _, err := Restore(m, full)
	if err != nil {
		t.Fatalf("restore full: %v", err)
	}
	assertSameMemory(t, fromDelta[0], fromFull[0])
}
