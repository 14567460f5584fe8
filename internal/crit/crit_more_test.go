package crit

import (
	"testing"

	"github.com/dynacut/dynacut/internal/criu"
	"github.com/dynacut/dynacut/internal/kernel"
)

func TestInsertLibraryAtExplicitBase(t *testing.T) {
	w := setup(t)
	lib := buildLib(t, "explicit.so", `
.text
.global entry
entry:
	ret
`)
	const base = 0x6000_0000_0000
	exports, err := w.ed.InsertLibrary(w.p.PID(), lib, base)
	if err != nil {
		t.Fatal(err)
	}
	if exports["entry"] != base {
		t.Fatalf("entry at %#x, want %#x", exports["entry"], base)
	}
	mod, err := w.ed.FindModule(w.p.PID(), "explicit.so")
	if err != nil {
		t.Fatal(err)
	}
	if mod.Lo != base {
		t.Errorf("module lo = %#x", mod.Lo)
	}
	// Unaligned base rejected.
	lib2 := buildLib(t, "unaligned.so", ".text\n.global f\nf: ret\n")
	if _, err := w.ed.InsertLibrary(w.p.PID(), lib2, 0x1234); err == nil {
		t.Fatal("unaligned base accepted")
	}
	// Executables rejected.
	if _, err := w.ed.InsertLibrary(w.p.PID(), w.exe, 0); err == nil {
		t.Fatal("executable injected as library")
	}
}

func TestFindFreeRangeSkipsExistingInjections(t *testing.T) {
	w := setup(t)
	lib1 := buildLib(t, "one.so", ".text\n.global f1\nf1: ret\n")
	lib2 := buildLib(t, "two.so", ".text\n.global f2\nf2: ret\n")
	e1, err := w.ed.InsertLibrary(w.p.PID(), lib1, 0)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := w.ed.InsertLibrary(w.p.PID(), lib2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e1["f1"] == e2["f2"] {
		t.Fatal("two injections landed on the same address")
	}
	m1, _ := w.ed.FindModule(w.p.PID(), "one.so")
	m2, _ := w.ed.FindModule(w.p.PID(), "two.so")
	if m1.Lo < m2.Hi && m2.Lo < m1.Hi {
		t.Fatalf("modules overlap: %+v %+v", m1, m2)
	}
}

// SyscallFilter reads the allow list from the core image (nil when no
// filter is installed).
func (e *Editor) SyscallFilter(pid int) ([]uint64, error) {
	pi, err := e.set.Proc(pid)
	if err != nil {
		return nil, err
	}
	if !pi.Core.HasFilter {
		return nil, nil
	}
	return append([]uint64(nil), pi.Core.SysFilter...), nil
}

func TestSyscallFilterImageEdit(t *testing.T) {
	w := setup(t)
	pid := w.p.PID()
	// No filter initially.
	f, err := w.ed.SyscallFilter(pid)
	if err != nil || f != nil {
		t.Fatalf("initial filter = %v, %v", f, err)
	}
	if err := w.ed.SetSyscallFilter(pid, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f, err = w.ed.SyscallFilter(pid)
	if err != nil || len(f) != 3 {
		t.Fatalf("filter = %v, %v", f, err)
	}
	// Round-trips through serialization.
	blob := w.set.Marshal()
	got, err := criu.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := got.Proc(pid)
	if err != nil {
		t.Fatal(err)
	}
	if !pi.Core.HasFilter || len(pi.Core.SysFilter) != 3 {
		t.Fatalf("serialized filter = %+v", pi.Core)
	}
	// Removing it works.
	if err := w.ed.SetSyscallFilter(pid, nil); err != nil {
		t.Fatal(err)
	}
	f, _ = w.ed.SyscallFilter(pid)
	if f != nil {
		t.Fatal("filter not removed")
	}
}

func TestDenyAllFilterDistinctFromNone(t *testing.T) {
	w := setup(t)
	pid := w.p.PID()
	if err := w.ed.SetSyscallFilter(pid, []uint64{}); err != nil {
		t.Fatal(err)
	}
	blob := w.set.Marshal()
	got, err := criu.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	pi, _ := got.Proc(pid)
	if !pi.Core.HasFilter {
		t.Fatal("deny-all filter lost in serialization")
	}
	// Restore applies it: the process dies at its first syscall.
	if err := w.m.Kill(pid); err != nil {
		t.Fatal(err)
	}
	procs, _, err := criu.Restore(w.m, got)
	if err != nil {
		t.Fatal(err)
	}
	state, _ := w.exe.Symbol("state")
	if err := procs[0].Mem().WriteU64(state.Value, 1); err != nil {
		t.Fatal(err)
	}
	w.m.Run(100000)
	if procs[0].KilledBy() != kernel.SIGSYS {
		t.Fatalf("killed by %v, want SIGSYS under deny-all", procs[0].KilledBy())
	}
}
