package crit

import (
	"bytes"
	"testing"

	"github.com/dynacut/dynacut/internal/criu"
	"github.com/dynacut/dynacut/internal/kernel"
)

// TestImageSetCloneIsolatesEdits applies every Editor mutator to a
// Clone of a dump and of a re-dump: the edits must land in the clone
// while the source set and the earlier dump it shares pages with stay
// byte-identical, since the source is the rewrite transaction's
// rollback anchor.
func TestImageSetCloneIsolatesEdits(t *testing.T) {
	w := setup(t)
	pid := w.p.PID()
	resultSym, err := w.exe.Symbol("result")
	if err != nil {
		t.Fatal(err)
	}
	featA, err := w.exe.Symbol("feature_a")
	if err != nil {
		t.Fatal(err)
	}
	// A re-dump after the full set: the written data page has new
	// backing, the text page is still the full set's slice.
	if err := w.p.Mem().WriteU64(resultSym.Value, 7); err != nil {
		t.Fatal(err)
	}
	delta, err := criu.Dump(w.m, pid, criu.DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	dpi, err := delta.Proc(pid)
	if err != nil {
		t.Fatal(err)
	}
	fpi, err := w.set.Proc(pid)
	if err != nil {
		t.Fatal(err)
	}
	textPN := featA.Value / kernel.PageSize
	if dpage, err := dpi.Page(textPN); err != nil {
		t.Fatal(err)
	} else if fpage, err := fpi.Page(textPN); err != nil || &dpage[0] != &fpage[0] {
		t.Fatal("text page is not shared with the earlier dump")
	}
	lib := buildLib(t, "sighandler.so", sighandlerLibSrc)
	dataPage := resultSym.Value / kernel.PageSize * kernel.PageSize

	for _, tc := range []struct {
		name    string
		set     *criu.ImageSet
		earlier *criu.ImageSet
	}{{"full", w.set, nil}, {"delta", delta, w.set}} {
		t.Run(tc.name, func(t *testing.T) {
			before := tc.set.Marshal()
			var earlierBefore []byte
			if tc.earlier != nil {
				earlierBefore = tc.earlier.Marshal()
			}
			clone := tc.set.Clone()
			ed := NewEditor(clone, w.m)
			must := func(what string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
			must("write own page", ed.WriteMem(pid, resultSym.Value, []byte{1, 2, 3}))
			must("write shared page", ed.WriteMem(pid, featA.Value, []byte{0xCC}))
			v := criu.VMAEntry{Start: 0x6000_0000_0000, End: 0x6000_0000_0000 + kernel.PageSize, Perm: 3, Name: "extra", Anon: true}
			must("add vma", ed.AddVMA(pid, v, []byte{9, 9}))
			must("unmap", ed.UnmapRange(pid, dataPage, dataPage+kernel.PageSize))
			must("sigaction", ed.SetSigaction(pid, int(kernel.SIGTRAP), 0x1234, 0x5678))
			must("syscall filter", ed.SetSyscallFilter(pid, []uint64{0, 1}))
			_, err := ed.InsertLibrary(pid, lib, 0)
			must("insert library", err)
			must("remove library", ed.RemoveLibrary(pid, lib.Name))

			pi, err := clone.Proc(pid)
			must("proc", err)
			pi.Core.RIP++
			pi.MM.Modules = append(pi.MM.Modules, criu.ModuleEntry{Name: "extra.so", Lo: v.Start, Hi: v.End})

			if bytes.Equal(clone.Marshal(), before) {
				t.Fatal("edits did not land in the clone")
			}
			if !bytes.Equal(tc.set.Marshal(), before) {
				t.Error("editing the clone changed the source set")
			}
			if tc.earlier != nil && !bytes.Equal(tc.earlier.Marshal(), earlierBefore) {
				t.Error("editing the clone changed the earlier dump")
			}
		})
	}
}

// TestEditorCopiesPageOnce: an editor copies a shared page the first
// time it patches it and patches its own copy in place after that,
// while the set it cloned from keeps the original bytes.
func TestEditorCopiesPageOnce(t *testing.T) {
	w := setup(t)
	pid := w.p.PID()
	featA, err := w.exe.Symbol("feature_a")
	if err != nil {
		t.Fatal(err)
	}
	pn := featA.Value / kernel.PageSize
	if (featA.Value+1)/kernel.PageSize != pn {
		t.Fatal("feature_a ends its page")
	}
	orig, err := w.set.Procs[pid].Page(pn)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(orig)
	clone := w.set.Clone()
	ed := NewEditor(clone, w.m)

	if err := ed.WriteMem(pid, featA.Value, []byte{0xCC}); err != nil {
		t.Fatal(err)
	}
	first, _ := clone.Procs[pid].Page(pn)
	if &first[0] == &orig[0] {
		t.Fatal("the first patch wrote into the shared page")
	}
	if err := ed.WriteMem(pid, featA.Value+1, []byte{0xCC}); err != nil {
		t.Fatal(err)
	}
	second, _ := clone.Procs[pid].Page(pn)
	if &second[0] != &first[0] {
		t.Fatal("the second patch copied the editor's own page again")
	}
	off := featA.Value % kernel.PageSize
	if second[off] != 0xCC || second[off+1] != 0xCC {
		t.Fatalf("patched bytes %#x %#x, want INT3 INT3", second[off], second[off+1])
	}
	if !bytes.Equal(orig, want) {
		t.Fatal("patching the clone changed the original set's page")
	}
}
