package kernel

import (
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/asm"
	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/delf/link"
	"github.com/dynacut/dynacut/internal/isa"
)

// buildExe assembles and links a standalone test program.
func buildExe(t *testing.T, name, src string, libs ...*delf.File) *delf.File {
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

func loadAndRun(t *testing.T, src string, maxSteps uint64) *Process {
	t.Helper()
	m := NewMachine()
	exe := buildExe(t, "test", src)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	m.Run(maxSteps)
	return p
}

func TestHelloExit(t *testing.T) {
	p := loadAndRun(t, `
.text
.global _start
_start:
	lea r2, msg
	mov r0, 2       ; write
	mov r1, 1       ; stdout
	mov r3, 6
	syscall
	mov r0, 1       ; exit
	mov r1, 42
	syscall
.rodata
msg: .ascii "hello\n"
`, 1000)
	if !p.Exited() || p.ExitCode() != 42 {
		t.Fatalf("exit = %v/%d", p.Exited(), p.ExitCode())
	}
	if string(p.Stdout()) != "hello\n" {
		t.Fatalf("stdout = %q", p.Stdout())
	}
}

func TestArithmeticAndFlags(t *testing.T) {
	p := loadAndRun(t, `
.text
.global _start
_start:
	mov r1, 10
	mov r2, 3
	add r1, r2      ; 13
	sub r1, 1       ; 12
	mul r1, r2      ; 36
	div r1, r2      ; 12
	shl r1, 2       ; 48
	shr r1, 1       ; 24
	xor r1, 0xf     ; 24^15 = 23
	and r1, 0x1f    ; 23
	or  r1, 0x40    ; 87
	cmp r1, 87
	jne bad
	cmp r1, 100
	jge bad
	cmp r1, 0
	jle bad
	mov r0, 1
	mov r1, 0
	syscall
bad:
	mov r0, 1
	mov r1, 1
	syscall
`, 1000)
	if p.ExitCode() != 0 {
		t.Fatalf("exit = %d, want 0", p.ExitCode())
	}
}

func TestSignedComparisons(t *testing.T) {
	p := loadAndRun(t, `
.text
.global _start
_start:
	mov r1, -5
	cmp r1, 3
	jge bad         ; -5 < 3 signed
	mov r2, -1
	cmp r2, -10
	jl bad          ; -1 > -10
	mov r0, 1
	mov r1, 0
	syscall
bad:
	mov r0, 1
	mov r1, 1
	syscall
`, 1000)
	if p.ExitCode() != 0 {
		t.Fatalf("exit = %d", p.ExitCode())
	}
}

func TestCallRetStack(t *testing.T) {
	p := loadAndRun(t, `
.text
.global _start
_start:
	mov r1, 5
	call double
	call double
	cmp r1, 20
	jne bad
	mov r0, 1
	mov r1, 0
	syscall
bad:
	mov r0, 1
	mov r1, 1
	syscall
double:
	push r2
	mov r2, 2
	mul r1, r2
	pop r2
	ret
`, 1000)
	if p.ExitCode() != 0 {
		t.Fatalf("exit = %d", p.ExitCode())
	}
}

func TestIndirectCallAndJump(t *testing.T) {
	p := loadAndRun(t, `
.text
.global _start
_start:
	mov r9, =setter
	call r9
	cmp r4, 77
	jne bad
	mov r9, =fin
	jmp r9
bad:
	mov r0, 1
	mov r1, 1
	syscall
fin:
	mov r0, 1
	mov r1, 0
	syscall
setter:
	mov r4, 77
	ret
`, 1000)
	if p.ExitCode() != 0 {
		t.Fatalf("exit = %d", p.ExitCode())
	}
}

func TestDataSections(t *testing.T) {
	p := loadAndRun(t, `
.text
.global _start
_start:
	mov r8, =counter
	load r1, [r8]
	add r1, 1
	store [r8], r1
	load r2, [r8]
	cmp r2, 101
	jne bad
	mov r9, =fnptr
	load r9, [r9]
	call r9         ; call through .quad-stored pointer
	cmp r5, 9
	jne bad
	mov r6, =buf    ; bss is zeroed
	load r7, [r6+8]
	cmp r7, 0
	jne bad
	mov r0, 1
	mov r1, 0
	syscall
bad:
	mov r0, 1
	mov r1, 1
	syscall
poke:
	mov r5, 9
	ret
.data
counter: .quad 100
fnptr: .quad poke
.bss
buf: .space 64
`, 1000)
	if p.ExitCode() != 0 {
		t.Fatalf("exit = %d, stdout=%q", p.ExitCode(), p.Stdout())
	}
}

func TestDivByZeroSIGFPE(t *testing.T) {
	p := loadAndRun(t, `
.text
.global _start
_start:
	mov r1, 1
	mov r2, 0
	div r1, r2
	mov r0, 1
	mov r1, 0
	syscall
`, 1000)
	if p.KilledBy() != SIGFPE {
		t.Fatalf("killed by %v, want SIGFPE", p.KilledBy())
	}
}

func TestWriteToRodataFaults(t *testing.T) {
	p := loadAndRun(t, `
.text
.global _start
_start:
	mov r1, =msg
	mov r2, 7
	store [r1], r2
	mov r0, 1
	mov r1, 0
	syscall
.rodata
msg: .quad 1
`, 1000)
	if p.KilledBy() != SIGSEGV {
		t.Fatalf("killed by %v, want SIGSEGV", p.KilledBy())
	}
}

func TestJumpToUnmappedFaults(t *testing.T) {
	p := loadAndRun(t, `
.text
.global _start
_start:
	mov r1, 0x99000000
	jmp r1
`, 1000)
	if p.KilledBy() != SIGSEGV {
		t.Fatalf("killed by %v, want SIGSEGV", p.KilledBy())
	}
}

func TestExecuteDataFaults(t *testing.T) {
	// NX: jumping into .data (mapped RW, not X) must fault even
	// though the bytes there decode as valid instructions.
	p := loadAndRun(t, `
.text
.global _start
_start:
	mov r1, =blob
	jmp r1
.data
blob: .byte 0x90, 0x90, 0xC3
`, 1000)
	if p.KilledBy() != SIGSEGV {
		t.Fatalf("killed by %v, want SIGSEGV (NX)", p.KilledBy())
	}
}

func TestINT3DefaultKills(t *testing.T) {
	p := loadAndRun(t, `
.text
.global _start
_start:
	int3
	mov r0, 1
	mov r1, 0
	syscall
`, 1000)
	if p.KilledBy() != SIGTRAP {
		t.Fatalf("killed by %v, want SIGTRAP", p.KilledBy())
	}
	if p.ExitCode() != 128+int(SIGTRAP) {
		t.Fatalf("exit code = %d", p.ExitCode())
	}
}

// TestSIGTRAPHandlerRedirect exercises the paper's central mechanism:
// an INT3 placed on a blocked feature raises SIGTRAP; the registered
// handler rewrites the saved RIP in the signal frame so that
// sigreturn resumes at the error path instead of terminating.
func TestSIGTRAPHandlerRedirect(t *testing.T) {
	p := loadAndRun(t, `
.text
.global _start
_start:
	mov r1, 5            ; SIGTRAP
	mov r2, =handler
	mov r3, =restorer
	mov r0, 11           ; sigaction
	syscall
	int3                 ; blocked "feature"
	; skipped entirely: the handler redirects past it
	mov r0, 1
	mov r1, 99           ; must not run
	syscall
target:
	mov r0, 1
	mov r1, 7
	syscall

handler:
	; r3 = frame pointer; rewrite saved RIP to point at target
	mov r5, =target
	store [r3], r5
	ret                  ; returns to restorer

restorer:
	mov r1, sp           ; frame pointer is at SP after the ret pop
	mov r0, 12           ; sigreturn
	syscall
`, 10000)
	if !p.Exited() {
		t.Fatal("did not exit")
	}
	if p.ExitCode() != 7 {
		t.Fatalf("exit = %d, want 7 (redirect target)", p.ExitCode())
	}
	if p.KilledBy() != 0 {
		t.Fatalf("killed by %v", p.KilledBy())
	}
}

// TestSIGTRAPHandlerPreservesRegisters: the frame save/restore must
// round-trip all registers and flags for untouched state.
func TestSIGTRAPHandlerPreservesRegisters(t *testing.T) {
	p := loadAndRun(t, `
.text
.global _start
_start:
	mov r1, 5
	mov r2, =handler
	mov r3, =restorer
	mov r0, 11
	syscall
	mov r9, 1234
	mov r10, 5678
	cmp r9, r10          ; sets L flag
	int3
	; resumes at skip (handler bumps RIP by 1, the INT3 size)
skip:
	jge bad              ; L must still be set
	cmp r9, 1234
	jne bad
	cmp r10, 5678
	jne bad
	mov r0, 1
	mov r1, 0
	syscall
bad:
	mov r0, 1
	mov r1, 1
	syscall
handler:
	load r5, [r3]        ; saved RIP (the int3 itself)
	add r5, 1            ; skip the 1-byte INT3
	store [r3], r5
	mov r9, 0            ; clobber; must be restored by sigreturn
	mov r10, 0
	ret
restorer:
	mov r1, sp
	mov r0, 12
	syscall
`, 10000)
	if p.ExitCode() != 0 {
		t.Fatalf("exit = %d, want 0", p.ExitCode())
	}
}

func TestForkParentChild(t *testing.T) {
	p := loadAndRun(t, `
.text
.global _start
_start:
	mov r0, 9            ; fork
	syscall
	cmp r0, 0
	je child
	; parent: wait for child, exit with (wait>>8 == childpid)
wait_loop:
	mov r0, 16           ; wait
	syscall
	cmp r0, -1
	je wait_loop
	mov r2, r0
	and r2, 0xff         ; child exit code
	mov r0, 1
	mov r1, r2
	syscall
child:
	mov r0, 1
	mov r1, 33
	syscall
`, 100000)
	if !p.Exited() || p.ExitCode() != 33 {
		t.Fatalf("parent exit = %v/%d, want 33", p.Exited(), p.ExitCode())
	}
}

func TestForkMemoryIsCopied(t *testing.T) {
	m := NewMachine()
	exe := buildExe(t, "forkmem", `
.text
.global _start
_start:
	mov r8, =shared
	mov r1, 1
	store [r8], r1
	mov r0, 9            ; fork
	syscall
	cmp r0, 0
	je child
	; parent: spin until child exits, then read shared (must still be 1)
ploop:
	mov r0, 16
	syscall
	cmp r0, -1
	je ploop
	load r1, [r8]
	mov r0, 1
	syscall              ; exit with shared value
child:
	mov r1, 2
	store [r8], r1       ; writes only the child's copy
	mov r0, 1
	mov r1, 0
	syscall
.data
shared: .quad 0
`)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(100000)
	if !p.Exited() || p.ExitCode() != 1 {
		t.Fatalf("exit = %v/%d, want 1 (COW semantics)", p.Exited(), p.ExitCode())
	}
}

func TestPLTCallIntoLibrary(t *testing.T) {
	libObj, err := asm.Assemble(`
.text
.global add_ten
add_ten:
	add r1, 10
	ret
.global get_magic
get_magic:
	lea r9, magic        ; PIC data access
	load r0, [r9]
	ret
.rodata
magic: .quad 424242
`)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := link.Library("libten.so", []*asm.Object{libObj})
	if err != nil {
		t.Fatal(err)
	}
	exe := buildExe(t, "plttest", `
.text
.global _start
_start:
	mov r1, 5
	call add_ten@plt
	cmp r1, 15
	jne bad
	call get_magic@plt
	cmp r0, 424242
	jne bad
	mov r0, 1
	mov r1, 0
	syscall
bad:
	mov r0, 1
	mov r1, 1
	syscall
`, lib)
	m := NewMachine()
	p, err := m.Load(exe, lib)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(10000)
	if p.ExitCode() != 0 {
		t.Fatalf("exit = %d", p.ExitCode())
	}
	// The library is recorded as a module at LibBase.
	mod, ok := moduleAt(p, LibBase)
	if !ok || mod.Name != "libten.so" {
		t.Errorf("ModuleAt(LibBase) = %v, %v", mod, ok)
	}
}

const echoServerSrc = `
.text
.global _start
_start:
	mov r0, 4            ; socket
	syscall
	mov r8, r0           ; listener fd
	mov r0, 5            ; bind
	mov r1, r8
	mov r2, 8080
	syscall
	mov r0, 6            ; listen
	mov r1, r8
	syscall
loop:
	mov r0, 7            ; accept
	mov r1, r8
	syscall
	mov r9, r0           ; conn fd
	mov r0, 3            ; read
	mov r1, r9
	mov r2, =buf
	mov r3, 64
	syscall
	mov r4, r0           ; n
	mov r0, 2            ; write it back
	mov r1, r9
	mov r2, =buf
	mov r3, r4
	syscall
	mov r0, 8            ; close conn
	mov r1, r9
	syscall
	jmp loop
.bss
buf: .space 64
`

func TestEchoServerWithHostClient(t *testing.T) {
	m := NewMachine()
	exe := buildExe(t, "echo", echoServerSrc)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	// Let the server boot and block in accept.
	m.Run(10000)
	if p.Exited() {
		t.Fatalf("server died: code=%d killed=%v", p.ExitCode(), p.KilledBy())
	}
	conn, err := m.Dial(8080)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	ok := m.RunUntil(func() bool { return len(conn.c.b2a) >= 4 }, 100000)
	if !ok {
		t.Fatal("no echo response")
	}
	if got := string(conn.ReadAll()); got != "ping" {
		t.Fatalf("echo = %q", got)
	}
	// Second round-trip on a fresh connection.
	conn2, err := m.Dial(8080)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Write([]byte("again")); err != nil {
		t.Fatal(err)
	}
	m.RunUntil(func() bool { return len(conn2.c.b2a) >= 5 }, 100000)
	if got := string(conn2.ReadAll()); got != "again" {
		t.Fatalf("echo2 = %q", got)
	}
}

func TestDialWithoutListener(t *testing.T) {
	m := NewMachine()
	if _, err := m.Dial(9999); err == nil {
		t.Fatal("Dial with no listener succeeded")
	}
}

func TestDoubleBindFails(t *testing.T) {
	m := NewMachine()
	exe := buildExe(t, "bind2", `
.text
.global _start
_start:
	mov r0, 4
	syscall
	mov r8, r0
	mov r0, 5
	mov r1, r8
	mov r2, 7777
	syscall
	mov r0, 4
	syscall
	mov r9, r0
	mov r0, 5
	mov r1, r9
	mov r2, 7777
	syscall              ; second bind must fail (-1)
	cmp r0, -1
	jne bad
	mov r0, 1
	mov r1, 0
	syscall
bad:
	mov r0, 1
	mov r1, 1
	syscall
`)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(10000)
	if p.ExitCode() != 0 {
		t.Fatalf("exit = %d", p.ExitCode())
	}
}

func TestRunIdlesWhenAllBlocked(t *testing.T) {
	m := NewMachine()
	exe := buildExe(t, "blocker", `
.text
.global _start
_start:
	mov r0, 4
	syscall
	mov r8, r0
	mov r0, 5
	mov r1, r8
	mov r2, 6000
	syscall
	mov r0, 7            ; accept blocks forever
	mov r1, r8
	syscall
	mov r0, 1
	syscall
`)
	if _, err := m.Load(exe); err != nil {
		t.Fatal(err)
	}
	n := m.Run(1_000_000)
	if n >= 1_000_000 {
		t.Fatalf("Run spun %d steps on a blocked process", n)
	}
	before := m.Clock()
	if m.Run(1000) != 0 {
		t.Error("blocked machine made progress")
	}
	if m.Clock() != before {
		t.Error("clock advanced while blocked")
	}
}

func TestClockAndGetpidSyscalls(t *testing.T) {
	p := loadAndRun(t, `
.text
.global _start
_start:
	mov r0, 13           ; clock
	syscall
	mov r9, r0
	mov r0, 10           ; getpid
	syscall
	cmp r0, 1
	jne bad
	mov r0, 13
	syscall
	cmp r0, r9
	jle bad              ; clock must advance
	mov r0, 1
	mov r1, 0
	syscall
bad:
	mov r0, 1
	mov r1, 1
	syscall
`, 1000)
	if p.ExitCode() != 0 {
		t.Fatalf("exit = %d", p.ExitCode())
	}
}

func TestNudgeSyscall(t *testing.T) {
	m := NewMachine()
	var nudged []uint64
	m.SetNudgeFunc(func(pid int, arg uint64) {
		nudged = append(nudged, arg)
	})
	exe := buildExe(t, "nudger", `
.text
.global _start
_start:
	mov r0, 15
	mov r1, 1
	syscall
	mov r0, 15
	mov r1, 2
	syscall
	mov r0, 1
	mov r1, 0
	syscall
`)
	if _, err := m.Load(exe); err != nil {
		t.Fatal(err)
	}
	m.Run(1000)
	if len(nudged) != 2 || nudged[0] != 1 || nudged[1] != 2 {
		t.Fatalf("nudges = %v", nudged)
	}
}

type blockRecorder struct {
	blocks map[uint64]uint64 // start -> size
	order  []uint64
}

func (r *blockRecorder) OnBlock(pid int, start, size uint64) {
	if r.blocks == nil {
		r.blocks = map[uint64]uint64{}
	}
	if _, seen := r.blocks[start]; !seen {
		r.order = append(r.order, start)
	}
	r.blocks[start] = size
}

func TestTracerSeesBasicBlocks(t *testing.T) {
	m := NewMachine()
	rec := &blockRecorder{}
	m.SetTracer(rec)
	exe := buildExe(t, "traced", `
.text
.global _start
_start:
	mov r1, 0          ; block A: _start..jmp
	jmp middle
dead:
	mov r1, 99         ; never executed
	ret
middle:
	add r1, 1          ; block B
	cmp r1, 3
	jl middle
	mov r0, 1          ; block C
	mov r1, 0
	syscall
`)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(10000)
	if !p.Exited() {
		t.Fatal("did not exit")
	}
	start, _ := exe.Symbol("_start")
	middle, _ := exe.Symbol("middle")
	dead, _ := exe.Symbol("dead")
	if _, ok := rec.blocks[start.Value]; !ok {
		t.Errorf("entry block not traced; got %v", rec.order)
	}
	if _, ok := rec.blocks[middle.Value]; !ok {
		t.Errorf("loop block not traced; got %v", rec.order)
	}
	if _, ok := rec.blocks[dead.Value]; ok {
		t.Error("dead block traced")
	}
	// Block A spans _start (10 bytes mov + 5 jmp).
	if sz := rec.blocks[start.Value]; sz != 15 {
		t.Errorf("entry block size = %d, want 15", sz)
	}
}

func TestLoadErrors(t *testing.T) {
	m := NewMachine()
	lib := &delf.File{Type: delf.TypeDyn, Name: "l.so",
		Sections: []*delf.Section{{Name: delf.SecText, Addr: 0, Size: 1,
			Perm: delf.PermR | delf.PermX, Data: []byte{byte(isa.OpRET)}}}}
	if _, err := m.Load(lib); err == nil || !strings.Contains(err.Error(), "not an executable") {
		t.Errorf("Load(lib) err = %v", err)
	}
}

func TestStdoutStderrSeparation(t *testing.T) {
	p := loadAndRun(t, `
.text
.global _start
_start:
	lea r2, m1
	mov r0, 2
	mov r1, 1
	mov r3, 3
	syscall
	lea r2, m2
	mov r0, 2
	mov r1, 2
	mov r3, 3
	syscall
	mov r0, 1
	mov r1, 0
	syscall
.rodata
m1: .ascii "out"
m2: .ascii "err"
`, 1000)
	if string(p.Stdout()) != "out" || string(p.stderr) != "err" {
		t.Fatalf("stdout=%q stderr=%q", p.Stdout(), p.stderr)
	}
}
