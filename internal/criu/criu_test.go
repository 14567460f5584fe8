package criu

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/dynacut/dynacut/internal/asm"
	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/delf/link"
	"github.com/dynacut/dynacut/internal/kernel"
)

func buildExe(t testing.TB, name, src string) *delf.File {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	exe, err := link.Executable(name, []*asm.Object{obj})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return exe
}

// counterSrc increments a counter forever, writing progress markers.
const counterSrc = `
.text
.global _start
_start:
	mov r8, =counter
loop:
	load r1, [r8]
	add r1, 1
	store [r8], r1
	jmp loop
.data
counter: .quad 0
`

func TestDumpRestoreRoundTrip(t *testing.T) {
	m := kernel.NewMachine()
	exe := buildExe(t, "counter", counterSrc)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(5000)
	counterSym, err := exe.Symbol("counter")
	if err != nil {
		t.Fatal(err)
	}
	before, err := p.Mem().ReadU64(counterSym.Value)
	if err != nil {
		t.Fatal(err)
	}
	if before == 0 {
		t.Fatal("counter did not advance")
	}

	set, err := Dump(m, p.PID(), DumpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kill(p.PID()); err != nil {
		t.Fatal(err)
	}

	restored, pidMap, err := Restore(m, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 {
		t.Fatalf("restored %d procs", len(restored))
	}
	rp := restored[0]
	if pidMap[p.PID()] != rp.PID() {
		t.Error("pid map wrong")
	}
	after, err := rp.Mem().ReadU64(counterSym.Value)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("counter after restore = %d, want %d", after, before)
	}
	// The restored process continues from where the original stopped.
	m.Run(5000)
	later, _ := rp.Mem().ReadU64(counterSym.Value)
	if later <= after {
		t.Fatalf("restored process not running: %d -> %d", after, later)
	}
}

// TestVanillaCRIUDropsCodePatches captures the design point of the
// paper's CRIU modification: without the exec-pages dump option, a
// code patch applied to the dumped image set is lost on restore
// because file-backed pages are re-read from disk.
func TestVanillaCRIUDropsCodePatches(t *testing.T) {
	for _, execPages := range []bool{false, true} {
		m := kernel.NewMachine()
		exe := buildExe(t, "counter", counterSrc)
		p, err := m.Load(exe)
		if err != nil {
			t.Fatal(err)
		}
		m.Run(1000)
		set, err := Dump(m, p.PID(), DumpOpts{ExecPages: execPages})
		if err != nil {
			t.Fatal(err)
		}

		// Patch the first byte of _start in the image to INT3.
		start, _ := exe.Symbol("_start")
		pi := set.Procs[p.PID()]
		pn := start.Value / kernel.PageSize
		page, err := pi.Page(pn)
		if execPages {
			if err != nil {
				t.Fatalf("ExecPages dump lacks code page: %v", err)
			}
			patched := append([]byte(nil), page...)
			patched[start.Value%kernel.PageSize] = 0xCC
			if err := pi.SetPage(pn, patched); err != nil {
				t.Fatal(err)
			}
		} else {
			if err == nil {
				t.Fatal("vanilla dump unexpectedly contains code pages")
			}
			// Patch anyway via SetPage to simulate a naive rewriter: the
			// restore will still re-read disk under pages absent from the
			// image, so write the page from scratch.
			patched := make([]byte, kernel.PageSize)
			patched[start.Value%kernel.PageSize] = 0xCC
			_ = patched
			// Without the code page in the image there is nothing a
			// byte-level rewriter can patch: exactly the limitation.
		}

		if err := m.Kill(p.PID()); err != nil {
			t.Fatal(err)
		}
		restored, _, err := Restore(m, set)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored[0].Mem().Read(start.Value, 1)
		if err != nil {
			t.Fatal(err)
		}
		if execPages && got[0] != 0xCC {
			t.Errorf("ExecPages: patch lost on restore (byte=%#x)", got[0])
		}
		if !execPages && got[0] == 0xCC {
			t.Errorf("vanilla: code page unexpectedly patched")
		}
	}
}

func TestImageSetMarshalRoundTrip(t *testing.T) {
	m := kernel.NewMachine()
	exe := buildExe(t, "counter", counterSrc)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(500)
	set, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	blob := set.Marshal()
	got, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	pi, gi := set.Procs[p.PID()], got.Procs[p.PID()]
	if gi == nil {
		t.Fatal("pid missing after round trip")
	}
	if pi.Core.Name != gi.Core.Name || pi.Core.PID != gi.Core.PID ||
		pi.Core.Parent != gi.Core.Parent || pi.Core.RIP != gi.Core.RIP ||
		pi.Core.Flags != gi.Core.Flags || pi.Core.Regs != gi.Core.Regs ||
		len(pi.Core.Sigs) != len(gi.Core.Sigs) {
		t.Errorf("core mismatch:\n%+v\n%+v", pi.Core, gi.Core)
	}
	if len(pi.MM.VMAs) != len(gi.MM.VMAs) {
		t.Fatalf("vma count %d != %d", len(pi.MM.VMAs), len(gi.MM.VMAs))
	}
	for i := range pi.MM.VMAs {
		if pi.MM.VMAs[i] != gi.MM.VMAs[i] {
			t.Errorf("vma %d mismatch", i)
		}
	}
	if len(pi.Pages) != len(gi.Pages) {
		t.Errorf("pages %d != %d", len(pi.Pages), len(gi.Pages))
	}
	if len(pi.Files.Files) != len(gi.Files.Files) {
		t.Errorf("files mismatch")
	}
}

func coreNoSigs(c CoreImage) CoreImage {
	c.Sigs = nil
	return c
}

func TestUnmarshalRejectsCorruptImages(t *testing.T) {
	m := kernel.NewMachine()
	exe := buildExe(t, "counter", counterSrc)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(100)
	set, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	blob := set.Marshal()
	if _, err := Unmarshal(nil); err == nil {
		t.Error("empty blob accepted")
	}
	// Truncations must fail or decode to an inconsistent set, never panic.
	for _, n := range []int{1, 10, len(blob) / 3, len(blob) - 3} {
		if _, err := Unmarshal(blob[:n]); err == nil {
			t.Errorf("truncated blob (%d bytes) accepted", n)
		}
	}
}

// Property: arbitrary byte blobs never panic Unmarshal.
func TestQuickUnmarshalRobust(t *testing.T) {
	f := func(raw []byte) bool {
		_, _ = Unmarshal(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

const trivialServerSrc = `
.text
.global _start
_start:
	mov r0, 4
	syscall
	mov r8, r0
	mov r0, 5
	mov r1, r8
	mov r2, 8080
	syscall
loop:
	mov r0, 7
	mov r1, r8
	syscall
	mov r9, r0
	mov r0, 3            ; read request
	mov r1, r9
	mov r2, =buf
	mov r3, 16
	syscall
	mov r0, 2            ; respond
	mov r1, r9
	lea r2, resp
	mov r3, 3
	syscall
	mov r0, 8
	mov r1, r9
	syscall
	jmp loop
.rodata
resp: .ascii "ok\n"
.bss
buf: .space 16
`

// TestTCPRepair: a live host connection must survive
// dump → kill → restore, the TCP_REPAIR property the paper depends on
// for zero-downtime rewriting.
func TestTCPRepair(t *testing.T) {
	m := kernel.NewMachine()
	exe := buildExe(t, "srv", trivialServerSrc)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(10000) // boot, block in accept

	// Open a connection and let the server accept it, but don't send
	// the request yet: the connection must survive the snapshot.
	conn, err := m.Dial(8080)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(5000) // server accepts, blocks in read

	set, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kill(p.PID()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Restore(m, set); err != nil {
		t.Fatal(err)
	}

	// The pre-snapshot connection still works end to end.
	if _, err := conn.Write([]byte("GET /")); err != nil {
		t.Fatal(err)
	}
	ok := m.RunUntil(func() bool { return len(conn.ReadAllPeek()) >= 3 }, 100000)
	if !ok {
		t.Fatal("no response on repaired connection")
	}
	if got := string(conn.ReadAll()); got != "ok\n" {
		t.Fatalf("response = %q", got)
	}

	// And new connections to the re-bound listener work too.
	conn2, err := m.Dial(8080)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Write([]byte("GET /")); err != nil {
		t.Fatal(err)
	}
	m.RunUntil(func() bool { return len(conn2.ReadAllPeek()) >= 3 }, 100000)
	if got := string(conn2.ReadAll()); got != "ok\n" {
		t.Fatalf("second response = %q", got)
	}
}

func TestRestoreFailsOnBusyPort(t *testing.T) {
	m := kernel.NewMachine()
	exe := buildExe(t, "srv", trivialServerSrc)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(10000)
	set, err := Dump(m, p.PID(), DumpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Original still alive and bound: restore must fail cleanly.
	if _, _, err := Restore(m, set); err == nil || !strings.Contains(err.Error(), "rebind") {
		t.Fatalf("restore over live port: err = %v", err)
	}
}

func TestDumpTree(t *testing.T) {
	m := kernel.NewMachine()
	exe := buildExe(t, "forker", `
.text
.global _start
_start:
	mov r0, 9            ; fork
	syscall
	cmp r0, 0
	je child
parent_loop:
	mov r0, 14           ; yield
	syscall
	jmp parent_loop
child:
	mov r8, =spin
child_loop:
	load r1, [r8]
	add r1, 1
	store [r8], r1
	jmp child_loop
.data
spin: .quad 0
`)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(2000)
	if len(m.Processes()) != 2 {
		t.Fatalf("procs = %d, want master+worker", len(m.Processes()))
	}
	set, err := Dump(m, p.PID(), DumpOpts{Tree: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.PIDs) != 2 {
		t.Fatalf("dumped %d procs, want 2", len(set.PIDs))
	}
	// The dump root comes first for restore ordering, and a PageStore
	// round trip keeps that order: callers take the restored root as
	// Restore's first process.
	if set.PIDs[0] != p.PID() || set.Procs[set.PIDs[0]].Core.Parent != 0 {
		t.Errorf("image order %v, want root %d first", set.PIDs, p.PID())
	}
	store := NewPageStore()
	ident, err := store.Deposit(set)
	if err != nil {
		t.Fatal(err)
	}
	set, err = store.Materialize(ident)
	if err != nil {
		t.Fatal(err)
	}
	if set.PIDs[0] != p.PID() {
		t.Errorf("materialized order %v, want root %d first", set.PIDs, p.PID())
	}
	// Kill tree and restore both.
	for _, pr := range m.Processes() {
		if err := m.Kill(pr.PID()); err != nil {
			t.Fatal(err)
		}
	}
	restored, pidMap, err := Restore(m, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 2 {
		t.Fatalf("restored %d", len(restored))
	}
	if restored[0].PID() != pidMap[p.PID()] {
		t.Errorf("restored[0] = pid %d, want the restored root %d", restored[0].PID(), pidMap[p.PID()])
	}
	// Parent-child relationship is preserved under new PIDs.
	if restored[1].Parent() != restored[0].PID() {
		t.Errorf("child parent = %d, want %d", restored[1].Parent(), restored[0].PID())
	}
	if len(pidMap) != 2 {
		t.Errorf("pidMap = %v", pidMap)
	}
	// Both keep running.
	m.Run(2000)
	if restored[0].Exited() || restored[1].Exited() {
		t.Error("restored tree died")
	}
}

func TestProcImagePageOps(t *testing.T) {
	pi := &ProcImage{}
	page := make([]byte, kernel.PageSize)
	page[0] = 1
	if err := pi.SetPage(5, page); err != nil {
		t.Fatal(err)
	}
	if err := pi.SetPage(9, page); err != nil {
		t.Fatal(err)
	}
	got, err := pi.Page(5)
	if err != nil || got[0] != 1 {
		t.Fatalf("Page(5) = %v, %v", got[0], err)
	}
	if _, err := pi.Page(6); err == nil {
		t.Error("absent page returned")
	}
	if err := pi.SetPage(5, make([]byte, 3)); err == nil {
		t.Error("short page accepted")
	}
	pi.DropPages(5, 6)
	if _, err := pi.Page(5); err == nil {
		t.Error("dropped page still present")
	}
	if _, err := pi.Page(9); err != nil {
		t.Error("unrelated page dropped")
	}
}
