package criu

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"github.com/dynacut/dynacut/internal/criu/pbuf"
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

func pageBytes(s *ImageSet) int {
	n := 0
	for _, pi := range s.Procs {
		n += len(pi.Pages)
	}
	return n
}

func TestIncrementalDumpSkipsCleanPages(t *testing.T) {
	m, p := loadCounter(t)

	full, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Delta() {
		t.Fatal("first dump is a delta")
	}
	if full.PagesDumped == 0 || full.PagesSkipped != 0 {
		t.Fatalf("full dump: dumped=%d skipped=%d", full.PagesDumped, full.PagesSkipped)
	}

	// Run briefly: the guest only touches its counter page.
	m.Run(500)

	delta, err := Dump(m, p.PID(), DumpOpts{ExecPages: true, Parent: full})
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Delta() {
		t.Fatal("second dump with a parent is not a delta")
	}
	if delta.PagesSkipped == 0 {
		t.Fatal("delta dump skipped no pages")
	}
	if delta.PagesDumped >= full.PagesDumped {
		t.Fatalf("delta dumped %d pages, full dumped %d", delta.PagesDumped, full.PagesDumped)
	}
	if db, fb := pageBytes(delta), pageBytes(full); db*2 > fb {
		t.Fatalf("delta carries %d page bytes of %d — not incremental", db, fb)
	}

	// An immediately repeated delta of the idle guest transfers nothing.
	idle, err := Dump(m, p.PID(), DumpOpts{ExecPages: true, Parent: delta})
	if err != nil {
		t.Fatal(err)
	}
	if idle.PagesDumped != 0 {
		t.Fatalf("idle delta dumped %d pages", idle.PagesDumped)
	}
}

// TestFullVsDeltaRestoreEquivalence is the property test: after an
// arbitrary mix of guest execution and direct memory writes, restoring
// parent+delta must equal restoring a full dump — same registers, same
// memory, same descriptors.
func TestFullVsDeltaRestoreEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, p := loadCounter(t)

		parent, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
		if err != nil {
			t.Fatal(err)
		}

		// Randomized write pattern: guest execution plus direct writes
		// scattered across the mapped address space.
		m.Run(uint64(rng.Intn(3000)))
		vmas := p.Mem().VMAs()
		for i := 0; i < 1+rng.Intn(20); i++ {
			v := vmas[rng.Intn(len(vmas))]
			span := v.End - v.Start
			addr := v.Start + uint64(rng.Int63n(int64(span)))
			buf := make([]byte, 1+rng.Intn(32))
			rng.Read(buf)
			if addr+uint64(len(buf)) > v.End {
				buf = buf[:v.End-addr]
			}
			if err := p.Mem().Write(addr, buf); err != nil {
				t.Fatalf("seed %d: write %#x: %v", seed, addr, err)
			}
		}

		delta, err := Dump(m, p.PID(), DumpOpts{ExecPages: true, Parent: parent})
		if err != nil {
			t.Fatal(err)
		}
		fullNow, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
		if err != nil {
			t.Fatal(err)
		}

		// The flattened delta must be page-for-page the full dump.
		flat, err := delta.Flatten()
		if err != nil {
			t.Fatalf("seed %d: flatten: %v", seed, err)
		}
		for _, pid := range fullNow.PIDs {
			fp, dp := fullNow.Procs[pid], flat.Procs[pid]
			if dp == nil {
				t.Fatalf("seed %d: pid %d missing from flattened delta", seed, pid)
			}
			if len(fp.PageMap.PageNumbers) != len(dp.PageMap.PageNumbers) {
				t.Fatalf("seed %d: pid %d pagemap %d vs %d pages", seed, pid,
					len(dp.PageMap.PageNumbers), len(fp.PageMap.PageNumbers))
			}
			for i, pn := range fp.PageMap.PageNumbers {
				if dp.PageMap.PageNumbers[i] != pn {
					t.Fatalf("seed %d: pid %d pagemap[%d] = %d, want %d", seed, pid,
						i, dp.PageMap.PageNumbers[i], pn)
				}
			}
			if !bytes.Equal(fp.Pages, dp.Pages) {
				t.Fatalf("seed %d: pid %d page contents diverge", seed, pid)
			}
			if fp.Core.Regs != dp.Core.Regs || fp.Core.RIP != dp.Core.RIP {
				t.Fatalf("seed %d: pid %d register state diverges", seed, pid)
			}
			if len(fp.Files.Files) != len(dp.Files.Files) {
				t.Fatalf("seed %d: pid %d descriptors diverge", seed, pid)
			}
		}

		// And the restored machines agree byte for byte.
		if err := m.Kill(p.PID()); err != nil {
			t.Fatal(err)
		}
		fromDelta, _, err := Restore(m, delta)
		if err != nil {
			t.Fatalf("seed %d: restore delta: %v", seed, err)
		}
		fromFull, _, err := Restore(m, fullNow)
		if err != nil {
			t.Fatalf("seed %d: restore full: %v", seed, err)
		}
		dm, fm := fromDelta[0].Mem(), fromFull[0].Mem()
		dPages, fPages := dm.PopulatedPages(), fm.PopulatedPages()
		if len(dPages) != len(fPages) {
			t.Fatalf("seed %d: restored page counts %d vs %d", seed, len(dPages), len(fPages))
		}
		for i, pn := range fPages {
			if dPages[i] != pn {
				t.Fatalf("seed %d: restored page sets diverge at %d", seed, i)
			}
			if !bytes.Equal(dm.PageDataUnsafe(pn), fm.PageDataUnsafe(pn)) {
				t.Fatalf("seed %d: restored page %d contents diverge", seed, pn)
			}
		}
		if fromDelta[0].RIP() != fromFull[0].RIP() {
			t.Fatalf("seed %d: restored RIPs diverge", seed)
		}
	}
}

// TestParallelMarshalDeterministic: the fan-out marshal/unmarshal must
// keep the blob byte-identical — across repeated Marshal calls and
// across independent dumps of the same machine state.
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

	// A delta marshals as its flattened set, deterministically too.
	m.Run(500)
	d1, err := Dump(m, p.PID(), DumpOpts{ExecPages: true, Parent: a})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1.Marshal(), d1.Marshal()) {
		t.Fatal("repeated Marshal of a delta set differs")
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

// TestDeltaBlobSelfContained: a blob never carries a delta. Marshal
// of an incremental set writes exactly the flattened set, the decoded
// blob restores on a fresh machine with no parent in sight, and a blob
// that does carry an incremental field is refused at decode.
func TestDeltaBlobSelfContained(t *testing.T) {
	m, p := loadCounter(t)
	full, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(500)
	delta, err := Dump(m, p.PID(), DumpOpts{ExecPages: true, Parent: full})
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Delta() {
		t.Fatal("second dump with a parent is not a delta")
	}
	flat, err := delta.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	blob := delta.Marshal()
	if !bytes.Equal(blob, flat.Marshal()) {
		t.Fatal("delta blob differs from the blob of its flattened set")
	}

	back, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Delta() || back.Parent != nil {
		t.Fatal("decoded blob is incremental")
	}
	dst := kernel.NewMachine()
	bin, err := m.ReadFile("counter")
	if err != nil {
		t.Fatal(err)
	}
	dst.WriteFile("counter", bin)
	if err := back.Validate(dst); err != nil {
		t.Fatalf("decoded delta blob does not validate without a parent: %v", err)
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
		{"parent-ref", handBlob(flat, true, nil)},
		{"delta-field", handBlob(flat, false, func(e *pbuf.Encoder) { e.Bool(8, true) })},
		{"holes-field", handBlob(flat, false, func(e *pbuf.Encoder) { e.Uint(9, 0x400) })},
	} {
		if _, err := Unmarshal(tc.blob); !errors.Is(err, ErrBadImage) {
			t.Errorf("%s: Unmarshal = %v, want ErrBadImage", tc.name, err)
		}
	}
	if _, err := Unmarshal(handBlob(flat, false, nil)); err != nil {
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

// TestParentDepthBound: once the chain reaches MaxParentDepth, the next
// dump silently falls back to a full dump instead of growing it.
func TestParentDepthBound(t *testing.T) {
	m, p := loadCounter(t)
	set, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < MaxParentDepth; i++ {
		m.Run(200)
		next, err := Dump(m, p.PID(), DumpOpts{ExecPages: true, Parent: set})
		if err != nil {
			t.Fatal(err)
		}
		if !next.Delta() {
			t.Fatalf("dump %d with depth-%d parent is not a delta", i+1, set.Depth())
		}
		set = next
	}
	if set.Depth() != MaxParentDepth {
		t.Fatalf("chain depth = %d, want %d", set.Depth(), MaxParentDepth)
	}
	m.Run(200)
	full, err := Dump(m, p.PID(), DumpOpts{ExecPages: true, Parent: set})
	if err != nil {
		t.Fatal(err)
	}
	if full.Delta() {
		t.Fatal("dump beyond MaxParentDepth still chained")
	}
	if full.Depth() != 0 {
		t.Fatalf("fallback full dump has depth %d", full.Depth())
	}
}

// TestDeltaHolesDropUnmappedPages: pages the guest unmaps between
// parent and delta must not resurrect through the chain on restore.
func TestDeltaHolesDropUnmappedPages(t *testing.T) {
	m, p := loadCounter(t)
	parent, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}

	// Unmap the guest's data VMA (it holds the counter).
	counter := counterAddr(t)
	v, ok := p.Mem().VMAAt(counter)
	if !ok {
		t.Fatal("counter not mapped")
	}
	if err := p.Mem().Unmap(v.Start, v.End); err != nil {
		t.Fatal(err)
	}

	delta, err := Dump(m, p.PID(), DumpOpts{ExecPages: true, Parent: parent})
	if err != nil {
		t.Fatal(err)
	}
	pi := delta.Procs[p.PID()]
	if len(pi.Holes) == 0 {
		t.Fatal("unmapped pages punched no holes")
	}
	if _, err := pi.Page(counter / kernel.PageSize); !errors.Is(err, ErrPageAbsent) {
		t.Fatalf("holed page resolves: %v", err)
	}
	eff, err := pi.EffectivePages()
	if err != nil {
		t.Fatal(err)
	}
	if _, present := eff[counter/kernel.PageSize]; present {
		t.Fatal("holed page present in effective view")
	}
}
