package disasm

import (
	"testing"

	"github.com/dynacut/dynacut/internal/asm"
	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/delf/link"
)

func build(t *testing.T, src string, libs ...*delf.File) *delf.File {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	exe, err := link.Executable("prog", []*asm.Object{obj}, libs...)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return exe
}

func TestLinearProgramIsOneBlock(t *testing.T) {
	exe := build(t, `
.text
.global _start
_start:
	mov r1, 1
	add r1, 2
	mov r0, 1
	syscall
`)
	cfg := Analyze(exe)
	if cfg.Count() != 1 {
		t.Fatalf("blocks = %d, want 1 (%+v)", cfg.Count(), cfg.Sorted())
	}
	b := cfg.Sorted()[0]
	if b.Addr != exe.Entry {
		t.Errorf("block at %#x, entry %#x", b.Addr, exe.Entry)
	}
	// 10+6+10+1 = 27 bytes.
	if b.Size != 27 {
		t.Errorf("block size = %d, want 27", b.Size)
	}
	if len(b.Succs) != 0 {
		t.Errorf("linear block has successors: %v", b.Succs)
	}
}

func TestBranchSplitsBlocks(t *testing.T) {
	exe := build(t, `
.text
.global _start
_start:
	cmp r1, 0          ; block 1: cmp + je
	je done
	add r1, 1          ; block 2: fall-through
done:
	mov r0, 1          ; block 3: branch target
	syscall
`)
	cfg := Analyze(exe)
	if cfg.Count() != 3 {
		t.Fatalf("blocks = %d, want 3: %+v", cfg.Count(), cfg.Sorted())
	}
	entry, ok := cfg.BlockAt(exe.Entry)
	if !ok {
		t.Fatal("no entry block")
	}
	if len(entry.Succs) != 2 {
		t.Fatalf("entry successors = %v, want 2", entry.Succs)
	}
	done, err := exe.Symbol("done")
	if err != nil {
		t.Fatal(err)
	}
	foundTarget := false
	for _, s := range entry.Succs {
		if s == done.Value {
			foundTarget = true
		}
	}
	if !foundTarget {
		t.Errorf("entry succs %v missing done %#x", entry.Succs, done.Value)
	}
}

func TestCallCreatesReturnBlock(t *testing.T) {
	exe := build(t, `
.text
.global _start
_start:
	call fn
	mov r0, 1         ; post-call block
	syscall
fn:
	ret
`)
	cfg := Analyze(exe)
	// _start block (just the call), post-call block, fn block.
	if cfg.Count() != 3 {
		t.Fatalf("blocks = %d: %+v", cfg.Count(), cfg.Sorted())
	}
}

func TestUnreachableFunctionStillCounted(t *testing.T) {
	// Function symbols seed the traversal, so never-called functions
	// (the gray blocks of Figure 2) appear in the static count.
	exe := build(t, `
.text
.global _start
_start:
	mov r0, 1
	syscall
dead_feature:
	mov r2, 9
	ret
`)
	cfg := Analyze(exe)
	dead, err := exe.Symbol("dead_feature")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg.BlockAt(dead.Value); !ok {
		t.Fatalf("dead function not in CFG: %+v", cfg.Sorted())
	}
}

func TestPLTEntriesCounted(t *testing.T) {
	libObj, err := asm.Assemble(".text\n.global fnx\nfnx: ret\n")
	if err != nil {
		t.Fatal(err)
	}
	lib, err := link.Library("l.so", []*asm.Object{libObj})
	if err != nil {
		t.Fatal(err)
	}
	exe := build(t, `
.text
.global _start
_start:
	call fnx@plt
	mov r0, 1
	syscall
`, lib)
	cfg := Analyze(exe)
	plt, err := exe.Section(delf.SecPLT)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg.BlockAt(plt.Addr); !ok {
		t.Error("PLT entry block missing from CFG")
	}
}

// blockBytes sums the sizes of cfg's blocks.
func blockBytes(cfg *CFG) uint64 {
	var n uint64
	for _, b := range cfg.Blocks {
		n += b.Size
	}
	return n
}

func TestLoopBackEdge(t *testing.T) {
	exe := build(t, `
.text
.global _start
_start:
	mov r1, 0
loop:
	add r1, 1
	cmp r1, 10
	jl loop
	mov r0, 1
	syscall
`)
	cfg := Analyze(exe)
	loop, err := exe.Symbol("loop")
	if err != nil {
		t.Fatal(err)
	}
	lb, ok := cfg.BlockAt(loop.Value)
	if !ok {
		t.Fatalf("loop head not a block: %+v", cfg.Sorted())
	}
	selfEdge := false
	for _, s := range lb.Succs {
		if s == loop.Value {
			selfEdge = true
		}
	}
	if !selfEdge {
		t.Errorf("loop block succs = %v, missing back edge to %#x", lb.Succs, loop.Value)
	}
}

func TestBlocksDoNotOverlap(t *testing.T) {
	exe := build(t, `
.text
.global _start
_start:
	cmp r1, 0
	je a
	cmp r1, 1
	je b
	jmp c
a:
	mov r2, 1
	jmp c
b:
	mov r2, 2
c:
	mov r0, 1
	syscall
`)
	cfg := Analyze(exe)
	blocks := cfg.Sorted()
	for i := 1; i < len(blocks); i++ {
		prev, cur := blocks[i-1], blocks[i]
		if prev.Addr+prev.Size > cur.Addr {
			t.Errorf("blocks overlap: %#x+%d > %#x", prev.Addr, prev.Size, cur.Addr)
		}
	}
	if blockBytes(cfg) == 0 {
		t.Error("blocks cover no bytes")
	}
}
