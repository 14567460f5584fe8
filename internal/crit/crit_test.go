package crit

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/asm"
	"github.com/dynacut/dynacut/internal/criu"
	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/delf/link"
	"github.com/dynacut/dynacut/internal/kernel"
)

func build(t *testing.T, name, src string, libs ...*delf.File) *delf.File {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	exe, err := link.Executable(name, []*asm.Object{obj}, libs...)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return exe
}

func buildLib(t *testing.T, name, src string) *delf.File {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	lib, err := link.Library(name, []*asm.Object{obj})
	if err != nil {
		t.Fatalf("link lib: %v", err)
	}
	return lib
}

// featureSrc has two "features" dispatched on r1, and an error path.
const featureSrc = `
.text
.global _start
_start:
	mov r8, =state
spin:
	load r1, [r8]        ; poll the request word
	cmp r1, 0
	je spin
	cmp r1, 1
	je feature_a
	cmp r1, 2
	je feature_b
	jmp errpath
feature_a:
	mov r2, 100
	jmp done
feature_b:
	mov r2, 200
	jmp done
errpath:
	mov r2, 255
done:
	mov r9, =result
	store [r9], r2
	mov r0, 1
	mov r1, 0
	syscall
.data
state: .quad 0
result: .quad 0
`

type world struct {
	m   *kernel.Machine
	p   *kernel.Process
	exe *delf.File
	set *criu.ImageSet
	ed  *Editor
}

func setup(t *testing.T) *world {
	t.Helper()
	m := kernel.NewMachine()
	exe := build(t, "featured", featureSrc)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(500) // spin on state==0
	set, err := criu.Dump(m, p.PID(), criu.DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	return &world{m: m, p: p, exe: exe, set: set, ed: NewEditor(set, m)}
}

// restoreAndTrigger kills the original, restores the edited set, pokes
// the request word, and returns the restored process after it exits.
func (w *world) restoreAndTrigger(t *testing.T, request uint64) *kernel.Process {
	t.Helper()
	if err := w.m.Kill(w.p.PID()); err != nil {
		t.Fatal(err)
	}
	procs, _, err := criu.Restore(w.m, w.set)
	if err != nil {
		t.Fatal(err)
	}
	rp := procs[0]
	state, err := w.exe.Symbol("state")
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Mem().WriteU64(state.Value, request); err != nil {
		t.Fatal(err)
	}
	w.m.Run(100000)
	return rp
}

func result(t *testing.T, w *world, p *kernel.Process) uint64 {
	t.Helper()
	sym, err := w.exe.Symbol("result")
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Mem().ReadU64(sym.Value)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestUnpatchedFeatureWorks(t *testing.T) {
	w := setup(t)
	rp := w.restoreAndTrigger(t, 1)
	if !rp.Exited() || result(t, w, rp) != 100 {
		t.Fatalf("feature A result = %d", result(t, w, rp))
	}
}

func TestBlockEntryTrapsFeature(t *testing.T) {
	w := setup(t)
	featA, err := w.exe.Symbol("feature_a")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ed.WriteMem(w.p.PID(), featA.Value, []byte{0xCC}); err != nil {
		t.Fatal(err)
	}
	rp := w.restoreAndTrigger(t, 1)
	// No SIGTRAP handler: default action kills the process.
	if rp.KilledBy() != kernel.SIGTRAP {
		t.Fatalf("killed by %v, want SIGTRAP", rp.KilledBy())
	}
	// The other feature keeps working on a fresh restore of the same
	// edited images? feature_b path is untouched, but the process is
	// dead; verify via a second restore.
	procs, _, err := criu.Restore(w.m, w.set)
	if err != nil {
		t.Fatal(err)
	}
	rp2 := procs[0]
	state, _ := w.exe.Symbol("state")
	if err := rp2.Mem().WriteU64(state.Value, 2); err != nil {
		t.Fatal(err)
	}
	w.m.Run(100000)
	if !rp2.Exited() || rp2.KilledBy() != 0 || result(t, w, rp2) != 200 {
		t.Fatalf("feature B broken after blocking A: result=%d killed=%v",
			result(t, w, rp2), rp2.KilledBy())
	}
}

func TestRestoreBytesReenablesFeature(t *testing.T) {
	w := setup(t)
	featA, _ := w.exe.Symbol("feature_a")
	orig, err := w.ed.ReadMem(w.p.PID(), featA.Value, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ed.WriteMem(w.p.PID(), featA.Value, []byte{0xCC}); err != nil {
		t.Fatal(err)
	}
	// Re-enable: write the original byte back (the paper's
	// bidirectional transformation).
	if err := w.ed.WriteMem(w.p.PID(), featA.Value, orig); err != nil {
		t.Fatal(err)
	}
	rp := w.restoreAndTrigger(t, 1)
	if !rp.Exited() || rp.KilledBy() != 0 || result(t, w, rp) != 100 {
		t.Fatalf("re-enabled feature broken: result=%d killed=%v",
			result(t, w, rp), rp.KilledBy())
	}
}

func TestWipeRangeTrapsMidBlockJumps(t *testing.T) {
	w := setup(t)
	featA, _ := w.exe.Symbol("feature_a")
	featB, _ := w.exe.Symbol("feature_b")
	if err := w.ed.WipeRange(w.p.PID(), featA.Value, featB.Value-featA.Value); err != nil {
		t.Fatal(err)
	}
	// Every byte in the wiped range is INT3 now.
	got, err := w.ed.ReadMem(w.p.PID(), featA.Value, int(featB.Value-featA.Value))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0xCC {
			t.Fatalf("byte %d = %#x, want CC", i, b)
		}
	}
}

func TestUnmapRangeRemovesPages(t *testing.T) {
	w := setup(t)
	text, err := w.exe.Section(delf.SecText)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ed.UnmapRange(w.p.PID(), text.Addr, text.Addr+kernel.PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ed.ReadMem(w.p.PID(), text.Addr, 1); err == nil {
		t.Fatal("unmapped page still readable in image")
	}
	// Restoring and running must SIGSEGV at the missing code.
	if err := w.m.Kill(w.p.PID()); err != nil {
		t.Fatal(err)
	}
	procs, _, err := criu.Restore(w.m, w.set)
	if err != nil {
		t.Fatal(err)
	}
	w.m.Run(10000)
	if procs[0].KilledBy() != kernel.SIGSEGV {
		t.Fatalf("killed by %v, want SIGSEGV", procs[0].KilledBy())
	}
	// Misaligned ranges rejected.
	if err := w.ed.UnmapRange(w.p.PID(), 1, kernel.PageSize); !errors.Is(err, ErrAlignment) {
		t.Errorf("unaligned unmap err = %v", err)
	}
}

func TestWriteMemRequiresDumpedPage(t *testing.T) {
	// Dump WITHOUT ExecPages: code pages are absent; patching must
	// fail with a telling error instead of silently doing nothing.
	m := kernel.NewMachine()
	exe := build(t, "featured", featureSrc)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(200)
	set, err := criu.Dump(m, p.PID(), criu.DumpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ed := NewEditor(set, m)
	featA, _ := exe.Symbol("feature_a")
	err = ed.WriteMem(p.PID(), featA.Value, []byte{0xCC})
	if !errors.Is(err, criu.ErrPageAbsent) {
		t.Fatalf("INT3 write on vanilla dump err = %v, want ErrPageAbsent", err)
	}
	// Data pages (anonymous) are present and writable.
	state, _ := exe.Symbol("state")
	if err := ed.WriteMem(p.PID(), state.Value, []byte{1}); err != nil {
		t.Fatalf("data write failed: %v", err)
	}
	// Writes outside any VMA are rejected.
	if err := ed.WriteMem(p.PID(), 0x1000, []byte{1}); !errors.Is(err, ErrNotMapped) {
		t.Errorf("unmapped write err = %v", err)
	}
}

const sighandlerLibSrc = `
.text
.global trap_handler
trap_handler:
	; count trap hits in library data, then redirect the saved RIP
	; to the configured error path (the paper's 403-style policy)
	lea r9, hits
	load r10, [r9]
	add r10, 1
	store [r9], r10
	lea r9, redirect_to
	load r5, [r9]
	store [r3], r5
	ret
.global trap_restorer
trap_restorer:
	mov r1, sp
	mov r0, 12
	syscall
.data
.global hits
hits: .quad 0
.global redirect_to
redirect_to: .quad 0
`

func TestInsertLibraryAndRedirect(t *testing.T) {
	w := setup(t)
	lib := buildLib(t, "sighandler.so", sighandlerLibSrc)
	pid := w.p.PID()
	featA, _ := w.exe.Symbol("feature_a")
	if err := w.ed.WriteMem(pid, featA.Value, []byte{0xCC}); err != nil {
		t.Fatal(err)
	}
	exports, err := w.ed.InsertLibrary(pid, lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ed.SetSigaction(pid, int(kernel.SIGTRAP),
		exports["trap_handler"], exports["trap_restorer"]); err != nil {
		t.Fatal(err)
	}
	// Configure the redirect target: the guest's shared error path.
	errpath, err := w.exe.Symbol("errpath")
	if err != nil {
		t.Fatal(err)
	}
	target := make([]byte, 8)
	for i := 0; i < 8; i++ {
		target[i] = byte(errpath.Value >> (8 * i))
	}
	if err := w.ed.WriteMem(pid, exports["redirect_to"], target); err != nil {
		t.Fatal(err)
	}
	rp := w.restoreAndTrigger(t, 1)
	// The trap fired, the handler redirected to the error path, and
	// the process survived with the error result instead of dying.
	if rp.KilledBy() != 0 || !rp.Exited() {
		t.Fatalf("process died: %v", rp.KilledBy())
	}
	if got := result(t, w, rp); got != 255 {
		t.Fatalf("result = %d, want 255 (error path)", got)
	}
	hits, err := rp.Mem().ReadU64(exports["hits"])
	if err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("handler hits = %d, want 1", hits)
	}
	// The module list records the injection.
	mods, err := w.ed.Modules(pid)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, mod := range mods {
		if mod.Name == "sighandler.so" {
			found = true
		}
	}
	if !found {
		t.Error("injected library missing from module list")
	}
}

func TestInsertLibraryResolvesImportsAgainstImage(t *testing.T) {
	// A library importing a symbol from the target's libc-like
	// library must get its GOT resolved against the image.
	helper := buildLib(t, "libhelp.so", `
.text
.global help_fn
help_fn:
	mov r0, 7777
	ret
`)
	m := kernel.NewMachine()
	exe := build(t, "prog", `
.text
.global _start
_start:
	call help_fn@plt
spin:
	jmp spin
`, helper)
	p, err := m.Load(exe, helper)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(100)
	set, err := criu.Dump(m, p.PID(), criu.DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	ed := NewEditor(set, m)

	injected := buildLib(t, "inject.so", `
.text
.global entry
entry:
	lea r9, slot
	load r9, [r9]
	jmp r9              ; tail-call help_fn through our GOT
.data
.global slot
slot: .quad 0
`)
	// Manually add a GOT-style import on `slot`.
	injected.Relocs = append(injected.Relocs, delf.Reloc{
		Off: mustSym(t, injected, "slot"), Kind: delf.RelGOT64, Symbol: "help_fn",
	})
	exports, err := ed.InsertLibrary(p.PID(), injected, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The slot must now hold help_fn's runtime address.
	slotVal, err := ed.ReadMem(p.PID(), exports["slot"], 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ed.ResolveSymbol(p.PID(), "help_fn")
	if err != nil {
		t.Fatal(err)
	}
	if got := leU64(slotVal); got != want {
		t.Fatalf("GOT slot = %#x, want %#x", got, want)
	}
	if want < kernel.LibBase {
		t.Errorf("help_fn resolved below lib base: %#x", want)
	}
}

func mustSym(t *testing.T, f *delf.File, name string) uint64 {
	t.Helper()
	sym, err := f.Symbol(name)
	if err != nil {
		t.Fatal(err)
	}
	return sym.Value
}

func leU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func TestJSONRoundTrip(t *testing.T) {
	w := setup(t)
	pid := w.p.PID()
	coreJSON, err := w.ed.CoreJSON(pid)
	if err != nil {
		t.Fatal(err)
	}
	var c criu.CoreImage
	if err := json.Unmarshal(coreJSON, &c); err != nil {
		t.Fatal(err)
	}
	pi, _ := w.set.Proc(pid)
	if c.RIP != pi.Core.RIP || c.Regs != pi.Core.Regs {
		t.Error("core JSON does not render the core image")
	}
	mmJSON, err := w.ed.MMJSON(pid)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mmJSON), "[stack]") {
		t.Error("mm JSON missing stack VMA")
	}
}

func TestEditorErrors(t *testing.T) {
	w := setup(t)
	if _, err := w.ed.ReadMem(999, 0x400000, 1); err == nil {
		t.Error("ReadMem on missing pid succeeded")
	}
	if _, err := w.ed.FindModule(w.p.PID(), "nosuch.so"); !errors.Is(err, ErrNoModule) {
		t.Errorf("FindModule err = %v", err)
	}
	if _, err := w.ed.ResolveSymbol(w.p.PID(), "no_symbol_here"); err == nil {
		t.Error("ResolveSymbol on missing symbol succeeded")
	}
	// Overlapping AddVMA rejected.
	err := w.ed.AddVMA(w.p.PID(), criu.VMAEntry{
		Start: 0x400000, End: 0x401000, Perm: 1, Name: "overlap", Anon: true,
	}, nil)
	if err == nil {
		t.Error("overlapping AddVMA accepted")
	}
}

// Sigaction reads a signal disposition from the core image.
func (e *Editor) Sigaction(pid, signo int) (handler, restorer uint64, ok bool) {
	pi, err := e.set.Proc(pid)
	if err != nil {
		return 0, 0, false
	}
	for _, sg := range pi.Core.Sigs {
		if sg.Signo == signo {
			return sg.Handler, sg.Restorer, true
		}
	}
	return 0, 0, false
}

func TestSigactionReadback(t *testing.T) {
	w := setup(t)
	pid := w.p.PID()
	if _, _, ok := w.ed.Sigaction(pid, int(kernel.SIGTRAP)); ok {
		t.Error("unexpected pre-existing SIGTRAP handler")
	}
	if err := w.ed.SetSigaction(pid, int(kernel.SIGTRAP), 0x1111, 0x2222); err != nil {
		t.Fatal(err)
	}
	h, r, ok := w.ed.Sigaction(pid, int(kernel.SIGTRAP))
	if !ok || h != 0x1111 || r != 0x2222 {
		t.Fatalf("Sigaction = %#x/%#x/%v", h, r, ok)
	}
	// Update in place.
	if err := w.ed.SetSigaction(pid, int(kernel.SIGTRAP), 0x3333, 0x4444); err != nil {
		t.Fatal(err)
	}
	h, _, _ = w.ed.Sigaction(pid, int(kernel.SIGTRAP))
	if h != 0x3333 {
		t.Error("sigaction not updated in place")
	}
}
