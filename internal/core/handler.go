package core

import (
	"fmt"
	"sync"

	"github.com/dynacut/dynacut/internal/asm"
	"github.com/dynacut/dynacut/internal/crit"
	"github.com/dynacut/dynacut/internal/criu"
	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/delf/link"
	"github.com/dynacut/dynacut/internal/faultinject"
)

// handlerLibSrc is the DynaCut signal-handler shared library injected
// into customized processes (§3.2.2/§3.2.3). On SIGTRAP it:
//
//  1. increments a hit counter,
//  2. consults the verifier table: if the fault address was patched in
//     verifier mode, the original byte is restored in place, the
//     address is appended to the false-removal log, and the saved RIP
//     is rewound so the instruction re-executes (§3.2.3);
//  3. otherwise redirects the saved RIP to the configured error path
//     (e.g. a web server's "403 Forbidden" responder), or terminates
//     if no redirect target is configured — the behaviour of prior
//     static debloaters.
//
// Handler ABI: r1 = signal number, r2 = fault address, r3 = signal
// frame pointer (saved RIP at [r3]). The restorer issues sigreturn.
const handlerLibSrc = `
.text
.global dynacut_handler
dynacut_handler:
	lea r9, hits
	load r10, [r9]
	add r10, 1
	store [r9], r10

	; verifier-table lookup: entries are (addr, origByte) quads
	lea r9, vtable_len
	load r10, [r9]
	lea r11, vtable
	mov r12, 0
vloop:
	cmp r12, r10
	jge vnotfound
	load r13, [r11]
	cmp r13, r2
	je vfound
	add r11, 16
	add r12, 1
	jmp vloop

vfound:
	load r13, [r11+8]
	storeb [r2], r13     ; restore the original first byte in place
	store [r3], r2       ; retry the restored instruction on sigreturn
	lea r9, flog_len
	load r10, [r9]
	cmp r10, 256         ; flog holds 256 entries; past that only count
	jge vlogfull
	lea r11, flog
	mov r13, r10
	shl r13, 3
	add r11, r13
	store [r11], r2      ; log the falsely-removed address
vlogfull:
	add r10, 1           ; flog_len counts every revert, stored or not
	store [r9], r10
	ret

vnotfound:
	lea r9, redirect_to
	load r5, [r9]
	cmp r5, 0
	je vexit
	store [r3], r5       ; jump to the application's error handler
	ret
vexit:
	mov r0, 1            ; exit(134): no error handler configured
	mov r1, 134
	syscall

.global dynacut_restorer
dynacut_restorer:
	mov r1, sp
	mov r0, 12           ; sigreturn
	syscall

.data
.global hits
hits: .quad 0
.global redirect_to
redirect_to: .quad 0
.global vtable_len
vtable_len: .quad 0
.global flog_len
flog_len: .quad 0

.bss
.align 8
.global vtable
vtable: .space 4096      ; 256 (addr, byte) entries
.global flog
flog: .space 2048        ; 256 logged addresses
`

// HandlerLibName is the soname of the injected library.
const HandlerLibName = "dynacut-handler.so"

// maxVerifierEntries bounds the in-guest verifier table.
const maxVerifierEntries = 256

// BuildHandlerLib returns the signal-handler library, assembled and
// linked once per process and shared by every customizer: callers must
// not mutate it. Injection maps copies of its sections.
var BuildHandlerLib = sync.OnceValues(buildHandlerLib)

// buildHandlerLib assembles and links the signal-handler library.
func buildHandlerLib() (*delf.File, error) {
	obj, err := asm.Assemble(handlerLibSrc)
	if err != nil {
		return nil, fmt.Errorf("assemble handler lib: %w", err)
	}
	lib, err := link.Library(HandlerLibName, []*asm.Object{obj})
	if err != nil {
		return nil, fmt.Errorf("link handler lib: %w", err)
	}
	return lib, nil
}

// Handler is the per-process view of an injected handler library.
type Handler struct {
	// Exported addresses inside the target process.
	HandlerAddr  uint64
	RestorerAddr uint64
	HitsAddr     uint64
	RedirectAddr uint64
	VTableLen    uint64
	VTable       uint64
	FLogLen      uint64
	FLog         uint64
}

// injectHandler inserts the handler library into pid's image and arms
// the SIGTRAP sigaction. redirectTo configures the error-path target
// (0 = terminate on unexpected traps).
//
// Injection is all-or-nothing: if arming fails after InsertLibrary
// succeeded (sigaction update, redirect-target write, or the
// SiteInjectArm fault window between them), the freshly mapped
// library is unwound from the image so a failed injection never
// leaves an orphaned, handle-less mapping behind. If even the unwind
// fails, the leaked mapping is surfaced in the returned error.
func injectHandler(ed *crit.Editor, pid int, lib *delf.File, redirectTo uint64) (*Handler, error) {
	exports, err := ed.InsertLibrary(pid, lib, 0)
	if err != nil {
		return nil, fmt.Errorf("inject handler: %w", err)
	}
	unwind := func(cause error) error {
		if uerr := ed.RemoveLibrary(pid, lib.Name); uerr != nil {
			return fmt.Errorf("arm handler: %w (unwind failed: %v; library %q leaked at %#x in pid %d image)",
				cause, uerr, lib.Name, exports["dynacut_handler"], pid)
		}
		return fmt.Errorf("arm handler: %w (injected library unwound)", cause)
	}
	h := &Handler{
		HandlerAddr:  exports["dynacut_handler"],
		RestorerAddr: exports["dynacut_restorer"],
		HitsAddr:     exports["hits"],
		RedirectAddr: exports["redirect_to"],
		VTableLen:    exports["vtable_len"],
		VTable:       exports["vtable"],
		FLogLen:      exports["flog_len"],
		FLog:         exports["flog"],
	}
	if h.HandlerAddr == 0 || h.RestorerAddr == 0 {
		return nil, unwind(fmt.Errorf("handler lib missing exports"))
	}
	if err := ed.Fault(faultinject.SiteInjectArm, pid); err != nil {
		return nil, unwind(err)
	}
	if err := ed.SetSigaction(pid, 5 /* SIGTRAP */, h.HandlerAddr, h.RestorerAddr); err != nil {
		return nil, unwind(err)
	}
	if redirectTo != 0 {
		if err := writeU64(ed, pid, h.RedirectAddr, redirectTo); err != nil {
			return nil, unwind(err)
		}
	}
	return h, nil
}

// handlerFromModule re-derives the per-process handler view from an
// already-mapped module entry: the injected base is the module's low
// address minus the library's image start, and every export is base +
// symbol value (exactly how InsertLibrary computed them).
func handlerFromModule(lib *delf.File, mod criu.ModuleEntry) *Handler {
	lo, _ := lib.ImageSpan()
	base := mod.Lo - lo
	at := func(name string) uint64 {
		sym, err := lib.Symbol(name)
		if err != nil {
			return 0
		}
		return base + sym.Value
	}
	return &Handler{
		HandlerAddr:  at("dynacut_handler"),
		RestorerAddr: at("dynacut_restorer"),
		HitsAddr:     at("hits"),
		RedirectAddr: at("redirect_to"),
		VTableLen:    at("vtable_len"),
		VTable:       at("vtable"),
		FLogLen:      at("flog_len"),
		FLog:         at("flog"),
	}
}

// addVerifierEntry appends (addr, origByte) to the in-guest table.
func addVerifierEntry(ed *crit.Editor, pid int, h *Handler, index int, addr uint64, orig byte) error {
	if index >= maxVerifierEntries {
		return fmt.Errorf("verifier table full (%d entries)", maxVerifierEntries)
	}
	entry := h.VTable + uint64(index)*16
	if err := writeU64(ed, pid, entry, addr); err != nil {
		return err
	}
	if err := writeU64(ed, pid, entry+8, uint64(orig)); err != nil {
		return err
	}
	return writeU64(ed, pid, h.VTableLen, uint64(index+1))
}

func writeU64(ed *crit.Editor, pid int, addr, v uint64) error {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return ed.WriteMem(pid, addr, b)
}
