package kernel

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/isa"
)

// BlockInfo describes one cached block for the tests and the fuzz
// harnesses.
type BlockInfo struct {
	Entry uint64
	Addrs []uint64
	Insts []isa.Inst
	Pages []uint64
}

// CachedBlocks returns the currently cached blocks sorted by entry
// address. Slices are copies; mutating them cannot corrupt the cache.
func (m *Memory) CachedBlocks() []BlockInfo {
	if m.bc == nil {
		return nil
	}
	out := make([]BlockInfo, 0, len(m.bc.blocks))
	for _, b := range m.bc.blocks {
		bi := BlockInfo{
			Entry: b.entry,
			Addrs: make([]uint64, len(b.insts)),
			Insts: make([]isa.Inst, len(b.insts)),
			Pages: append([]uint64(nil), b.pages...),
		}
		for i := range b.insts {
			bi.Addrs[i] = b.insts[i].addr
			bi.Insts[i] = b.insts[i].in
		}
		out = append(out, bi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Entry < out[j].Entry })
	return out
}

// writableText makes exe's text section writable, so the loader maps
// it read-write-execute and the guest can store into its own code.
func writableText(t *testing.T, exe *delf.File) {
	t.Helper()
	sec, err := exe.Section(".text")
	if err != nil {
		t.Fatal(err)
	}
	sec.Perm |= delf.PermW
}

// runBoth runs the same program to completion on two fresh machines —
// one interpreting, one in the given cache mode — and asserts the
// guest-visible outcomes are identical.
func runBoth(t *testing.T, src string, mode ExecMode, maxSteps uint64) (ref, tx *Process) {
	t.Helper()
	exe := buildExe(t, "test", src)

	mi := NewMachine()
	mi.SetExecMode(ModeInterpret)
	ref, err := mi.Load(exe)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	mi.Run(maxSteps)

	mt := NewMachine()
	mt.SetExecMode(mode)
	tx, err = mt.Load(exe)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	mt.Run(maxSteps)

	if ref.Exited() != tx.Exited() || ref.ExitCode() != tx.ExitCode() || ref.KilledBy() != tx.KilledBy() {
		t.Fatalf("%v: exit state diverged: interpreter exited=%v/%d/%v, engine exited=%v/%d/%v",
			mode, ref.Exited(), ref.ExitCode(), ref.KilledBy(), tx.Exited(), tx.ExitCode(), tx.KilledBy())
	}
	if ref.insts != tx.insts {
		t.Fatalf("%v: retired insts diverged: interpreter %d, engine %d", mode, ref.insts, tx.insts)
	}
	if mi.Clock() != mt.Clock() {
		t.Fatalf("%v: clock diverged: interpreter %d, engine %d", mode, mi.Clock(), mt.Clock())
	}
	if string(ref.Stdout()) != string(tx.Stdout()) {
		t.Fatalf("%v: stdout diverged: %q vs %q", mode, ref.Stdout(), tx.Stdout())
	}
	if n := mt.CacheDivergenceCount(); n != 0 {
		t.Fatalf("%v: %d cache decode divergences: %v", mode, n, mt.CacheDivergences())
	}
	return ref, tx
}

// corpusPrograms are small hand-written guests covering every block
// terminator and fault shape the translator must reproduce exactly.
var corpusPrograms = map[string]string{
	"loop-arith": `
.text
.global _start
_start:
	mov r1, 0
	mov r2, 0
loop:
	add r1, 1
	add r2, 3
	mul r2, 2
	and r2, 0xffff
	cmp r1, 500
	jne loop
	mov r0, 1
	mov r1, 0
	syscall
`,
	"call-ret": `
.text
.global _start
_start:
	mov r1, 0
	mov r2, 0
again:
	call inc
	cmp r1, 50
	jl again
	mov r0, 1
	syscall
inc:
	add r1, 1
	add r2, 7
	ret
`,
	"trap-kills": `
.text
.global _start
_start:
	mov r1, 3
	int3
	mov r0, 1
	syscall
`,
	"div-zero": `
.text
.global _start
_start:
	mov r1, 9
	mov r2, 0
	div r1, r2
	mov r0, 1
	syscall
`,
	"sigtrap-handler": `
.text
.global _start
_start:
	mov r1, 5
	mov r2, =handler
	mov r3, =restorer
	mov r0, 11
	syscall
	mov r4, 0
loop:
	int3
	add r4, 1
	cmp r4, 20
	jne loop
	mov r0, 1
	mov r1, 0
	syscall
handler:
	ret
restorer:
	mov r1, sp
	mov r0, 12
	syscall
`,
	"jmp-chain": `
.text
.global _start
_start:
	mov r1, 0
	mov r2, 0
loop:
	add r1, 1
	jmp hop1
hop2:
	add r2, 1
	cmp r1, 100
	jne loop
	mov r0, 1
	mov r1, 0
	syscall
hop1:
	add r2, 2
	jmp hop2
`,
}

func TestTranslateMatchesInterpreter(t *testing.T) {
	for name, src := range corpusPrograms {
		t.Run(name, func(t *testing.T) {
			runBoth(t, src, ModeTranslate, 200_000)
		})
	}
}

func TestLockstepMatchesInterpreter(t *testing.T) {
	for name, src := range corpusPrograms {
		t.Run(name, func(t *testing.T) {
			runBoth(t, src, ModeLockstep, 200_000)
		})
	}
}

// TestBlockCacheHitsAndChaining: the hot loop in jmp-chain must be
// cached as ONE superblock spanning both unconditional jumps, and
// subsequent iterations must be served from the cache.
func TestBlockCacheHitsAndChaining(t *testing.T) {
	m := NewMachine()
	m.SetExecMode(ModeTranslate)
	exe := buildExe(t, "test", corpusPrograms["jmp-chain"])
	p, err := m.Load(exe)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	m.Run(100_000)
	if !p.Exited() || p.ExitCode() != 0 {
		t.Fatalf("exit = %v/%d", p.Exited(), p.ExitCode())
	}
	st := p.Mem().BlockCacheStats()
	if st.Translations == 0 || st.Hits == 0 {
		t.Fatalf("no cache activity: %+v", st)
	}
	if st.ChainedJumps < 2 {
		t.Fatalf("expected >=2 chained jumps (loop->hop1->hop2), got %+v", st)
	}
	if st.Hits < 90 {
		t.Fatalf("hot loop not served from cache: %+v", st)
	}
	// The superblock itself: one cached block containing instructions
	// at non-contiguous addresses (the jmp targets).
	var sawSuper bool
	for _, bi := range p.Mem().CachedBlocks() {
		for i := 1; i < len(bi.Addrs); i++ {
			if bi.Addrs[i] != bi.Addrs[i-1]+uint64(bi.Insts[i-1].Size) {
				sawSuper = true
			}
		}
	}
	if !sawSuper {
		t.Fatalf("no superblock spanning a jump found in %v", p.Mem().CachedBlocks())
	}
}

// TestSelfLoopNotUnrolled: a block that jumps to its own entry must
// terminate recording instead of unrolling the loop into the cache.
func TestSelfLoopNotUnrolled(t *testing.T) {
	m := NewMachine()
	m.SetExecMode(ModeTranslate)
	exe := buildExe(t, "test", `
.text
.global _start
_start:
	mov r1, 1
spin:
	add r1, 1
	jmp spin
`)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	m.Run(1000)
	for _, bi := range p.Mem().CachedBlocks() {
		if len(bi.Insts) > 3 {
			t.Fatalf("self-loop unrolled into %d-inst block: %+v", len(bi.Insts), bi)
		}
	}
	if got := p.Reg(1); got < 400 {
		t.Fatalf("loop did not run from cache: r1=%d", got)
	}
}

// TestWriteInvalidatesCachedBlock: an INT3 written over cached code
// (the live-patch channel is Memory.Write, same as here) must evict
// the block so the very next dispatch traps — never replays the
// original instruction.
func TestWriteInvalidatesCachedBlock(t *testing.T) {
	exe := buildExe(t, "test", `
.text
.global _start
_start:
loop:
	mov r3, 7
	jmp loop
`)
	m := NewMachine()
	m.SetExecMode(ModeTranslate)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	m.Run(1000)
	if st := p.Mem().BlockCacheStats(); st.Hits == 0 {
		t.Fatalf("loop not cached: %+v", st)
	}
	victim, err := exe.Symbol("loop")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Mem().Write(victim.Value, []byte{0xCC}); err != nil { // INT3
		t.Fatal(err)
	}
	st := p.Mem().BlockCacheStats()
	if st.PageFlushes == 0 {
		t.Fatalf("loud write did not flush cached blocks: %+v", st)
	}
	m.Run(1000)
	if !p.Exited() || p.KilledBy() != SIGTRAP {
		t.Fatalf("stale cached code ran past the patch: exited=%v killed=%v", p.Exited(), p.KilledBy())
	}
}

// TestSuperblockSeveredOnFlush: invalidating the page under a chained
// superblock must remove the whole chain from the cache.
func TestSuperblockSeveredOnFlush(t *testing.T) {
	m := NewMachine()
	m.SetExecMode(ModeTranslate)
	exe := buildExe(t, "test", corpusPrograms["jmp-chain"])
	p, err := m.Load(exe)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	m.Run(300) // enough to cache the loop superblock, not to finish
	if p.Exited() {
		t.Fatal("finished too early for the test to mean anything")
	}
	blocks := p.Mem().CachedBlocks()
	if len(blocks) == 0 {
		t.Fatal("nothing cached")
	}
	// Overwrite one byte of the page holding the first cached block
	// with the identical value: contents unchanged, but the loud-write
	// protocol must still sever every block on the page.
	addr := blocks[0].Entry
	b, err := p.Mem().Read(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Mem().Write(addr, b); err != nil {
		t.Fatal(err)
	}
	for _, bi := range p.Mem().CachedBlocks() {
		for _, pn := range bi.Pages {
			if pn == addr/PageSize {
				t.Fatalf("block %#x still cached after page %#x flush", bi.Entry, pn)
			}
		}
	}
	// And the program still completes correctly afterwards.
	m.Run(100_000)
	if !p.Exited() || p.ExitCode() != 0 {
		t.Fatalf("exit = %v/%d", p.Exited(), p.ExitCode())
	}
}

// TestFlipBitsRetranslates is the PR's regression test for the
// FlipBits interplay: a silent bit flip bypasses the eager flush, so
// only the per-page generation counter can stop
// the cache from replaying the pre-flip decode. Flip, observe the
// flipped semantics; repair (loud write, the attestation channel),
// observe the original semantics again.
func TestFlipBitsRetranslates(t *testing.T) {
	exe := buildExe(t, "test", `
.text
.global _start
_start:
loop:
	mov r3, 7
	jmp loop
`)
	m := NewMachine()
	m.SetExecMode(ModeTranslate)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	m.Run(1000)
	if got := p.Reg(3); got != 7 {
		t.Fatalf("r3 = %d, want 7", got)
	}
	if st := p.Mem().BlockCacheStats(); st.Hits == 0 {
		t.Fatalf("loop not cached: %+v", st)
	}

	victim, err := exe.Symbol("loop")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := p.Mem().Read(victim.Value, 10)
	if err != nil {
		t.Fatal(err)
	}
	flushesBefore := p.Mem().BlockCacheStats().PageFlushes
	// MOVri encodes [op][reg][imm64le]: flip bit 1 of the immediate's
	// low byte, turning `mov r3, 7` into `mov r3, 5`.
	if !p.Mem().FlipBits(victim.Value+2, 0x02) {
		t.Fatal("FlipBits refused")
	}
	if got := p.Mem().BlockCacheStats().PageFlushes; got != flushesBefore {
		t.Fatalf("silent flip flushed the block cache: %d -> %d", flushesBefore, got)
	}
	m.Run(1000)
	if got := p.Reg(3); got != 5 {
		t.Fatalf("after silent flip r3 = %d, want 5 (stale cached decode executed)", got)
	}
	st := p.Mem().BlockCacheStats()
	if st.GenEvictions == 0 {
		t.Fatalf("flip was not caught by the generation check: %+v", st)
	}

	// Repair the page the way the attestation repair path does: a loud
	// Memory.Write of the pristine bytes.
	if err := p.Mem().Write(victim.Value, orig); err != nil {
		t.Fatal(err)
	}
	m.Run(1000)
	if got := p.Reg(3); got != 7 {
		t.Fatalf("after repair r3 = %d, want 7 (repaired page did not re-translate)", got)
	}
	if n := m.CacheDivergenceCount(); n != 0 {
		t.Fatalf("unexpected cache divergences: %v", m.CacheDivergences())
	}
}

// TestLockstepModeCatchesProtocolBypass is the oracle's negative
// control: corrupt text through a channel NO invalidation hook covers
// (direct page mutation, below every bookkeeping layer) and assert
// lockstep mode detects the stale decode, evicts it, and keeps guest
// behavior equal to the interpreter — while plain translate mode,
// with no protocol step to save it, replays the stale decode. If this
// test ever finds lockstep silent, the oracle is broken.
func TestLockstepModeCatchesProtocolBypass(t *testing.T) {
	build := func(mode ExecMode) (*Machine, *Process, uint64) {
		exe := buildExe(t, "test", `
.text
.global _start
_start:
loop:
	mov r3, 7
	jmp loop
`)
		m := NewMachine()
		m.SetExecMode(mode)
		p, err := m.Load(exe)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		m.Run(1000)
		victim, err := exe.Symbol("loop")
		if err != nil {
			t.Fatal(err)
		}
		return m, p, victim.Value
	}

	// Plain translate: the bypassing write is invisible, the stale
	// decode keeps executing. (This is exactly why every real write
	// channel MUST go through noteWrite/noteSilentWrite.)
	m, p, addr := build(ModeTranslate)
	p.mem.pages[addr/PageSize][addr%PageSize+2] ^= 0x02
	m.Run(1000)
	if got := p.Reg(3); got != 7 {
		t.Fatalf("translate mode noticed a bypassing write (r3=%d)? the test premise is broken", got)
	}

	// Lockstep: the per-dispatch re-decode catches it, records the
	// divergence, and executes the live bytes.
	m, p, addr = build(ModeLockstep)
	p.mem.pages[addr/PageSize][addr%PageSize+2] ^= 0x02
	m.Run(1000)
	if got := p.Reg(3); got != 5 {
		t.Fatalf("lockstep mode executed stale decode: r3 = %d, want 5", got)
	}
	if m.CacheDivergenceCount() == 0 {
		t.Fatal("lockstep mode did not record the divergence")
	}
}

// TestMapFlushesCache: a VMA-layout change must flush the whole cache
// — fetch behavior depends on the layout, not just page bytes.
func TestMapFlushesCache(t *testing.T) {
	m := NewMachine()
	m.SetExecMode(ModeTranslate)
	exe := buildExe(t, "test", corpusPrograms["loop-arith"])
	p, err := m.Load(exe)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	m.Run(300)
	if len(p.Mem().CachedBlocks()) == 0 {
		t.Fatal("nothing cached")
	}
	vmas := p.Mem().VMAs()
	end := vmas[len(vmas)-1].End
	if err := p.Mem().Map(VMA{Start: end, End: end + PageSize, Perm: delf.PermR | delf.PermW, Anon: true}); err != nil {
		t.Fatal(err)
	}
	if got := len(p.Mem().CachedBlocks()); got != 0 {
		t.Fatalf("%d blocks survived a layout change", got)
	}
	if st := p.Mem().BlockCacheStats(); st.LayoutFlush == 0 {
		t.Fatalf("layout flush not counted: %+v", st)
	}
	m.Run(200_000)
	if !p.Exited() || p.ExitCode() != 0 {
		t.Fatalf("exit = %v/%d", p.Exited(), p.ExitCode())
	}
}

// TestCloneDoesNotShareCache: a cloned machine inherits the exec mode
// but starts with a cold cache over its own CoW address space.
func TestCloneDoesNotShareCache(t *testing.T) {
	m := NewMachine()
	m.SetExecMode(ModeTranslate)
	exe := buildExe(t, "test", corpusPrograms["loop-arith"])
	p, err := m.Load(exe)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	m.Run(300)
	if len(p.Mem().CachedBlocks()) == 0 {
		t.Fatal("nothing cached on the parent")
	}
	c := m.Clone()
	if c.ExecMode() != ModeTranslate {
		t.Fatalf("clone exec mode = %v", c.ExecMode())
	}
	cp, err := c.Process(p.PID())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cp.Mem().CachedBlocks()); got != 0 {
		t.Fatalf("clone inherited %d cached blocks", got)
	}
	c.Run(200_000)
	m.Run(200_000)
	if cp.ExitCode() != p.ExitCode() || cp.insts != p.insts {
		t.Fatalf("clone diverged: %d/%d vs %d/%d", cp.ExitCode(), cp.insts, p.ExitCode(), p.insts)
	}
}

// TestForkChildColdCache: fork clones the address space; the child
// must re-translate in its own cache (no aliasing into the parent's).
func TestForkChildColdCache(t *testing.T) {
	runBoth(t, `
.text
.global _start
_start:
	mov r4, 0
	mov r0, 9        ; fork
	syscall
	cmp r0, 0
	je child
	mov r6, 0
ploop:
	add r6, 1
	cmp r6, 100
	jne ploop
	mov r0, 1
	mov r1, 3
	syscall
child:
	mov r6, 0
cloop:
	add r6, 2
	cmp r6, 200
	jne cloop
	mov r0, 1
	mov r1, 4
	syscall
`, ModeTranslate, 100_000)
}

// TestExecModeString covers the mode names used in logs and bench IDs.
func TestExecModeString(t *testing.T) {
	for mode, want := range map[ExecMode]string{
		ModeInterpret: "interpret",
		ModeTranslate: "translate",
		ModeLockstep:  "lockstep",
		ExecMode(9):   "ExecMode(9)",
	} {
		if got := mode.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", int(mode), got, want)
		}
	}
}

// TestTranslateWarmLoopAllocatesNothing: once its blocks are cached and
// its pages populated, a guest loop of word and byte loads and stores,
// calls and returns runs on the default engine without a single heap
// allocation.
func TestTranslateWarmLoopAllocatesNothing(t *testing.T) {
	exe := buildExe(t, "test", `
.text
.global _start
_start:
	mov r8, =buf
loop:
	call body
	jmp loop
body:
	load r1, [r8]
	add r1, 1
	store [r8], r1
	loadb r2, [r8+9]
	add r2, 3
	storeb [r8+9], r2
	ret
.bss
buf: .space 64
`)
	m := NewMachine()
	p, err := m.Load(exe)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	m.Run(10_000)
	before := p.Mem().BlockCacheStats()
	if allocs := testing.AllocsPerRun(50, func() { m.Run(1000) }); allocs != 0 {
		t.Fatalf("warm loop allocated %.1f times per 1000-instruction Run", allocs)
	}
	st := p.Mem().BlockCacheStats()
	if p.Exited() || st.Hits == before.Hits || st.Translations != before.Translations {
		t.Fatalf("loop not served from the cache: exited=%v before %+v after %+v", p.Exited(), before, st)
	}
}

// TestBlockCacheStraddlingFetchRecordsBothPages: a block whose first
// instruction crosses a page boundary is recorded against both pages,
// sorted, each with its generation; a store into either page while the
// block records leaves it stale, so it never validates.
func TestBlockCacheStraddlingFetchRecordsBothPages(t *testing.T) {
	// entry sits 4 bytes before the end of the first text page, so its
	// 10-byte MOVri spills into the second page. The block at entry
	// stores r3 to r9's slot, then jumps back to entry.
	build := func(t *testing.T, slot string) (*Machine, *Process, uint64) {
		exe := buildExe(t, "test", `
.text
.global _start
_start:
	jmp entry
low:
	.space 4087
entry:
	mov r3, 7
	mov r9, =`+slot+`
	store [r9], r3
	jmp entry
high:
	.quad 0
.bss
far: .space 8
`)
		writableText(t, exe) // so the guest can store into its text
		m := NewMachine()
		m.SetExecMode(ModeTranslate)
		p, err := m.Load(exe)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		sym, err := exe.Symbol("entry")
		if err != nil {
			t.Fatal(err)
		}
		entry := sym.Value
		if off := entry % PageSize; off+maxInstLen <= PageSize {
			t.Fatalf("entry %#x does not straddle a page boundary", entry)
		}
		return m, p, entry
	}

	t.Run("clean", func(t *testing.T) {
		m, p, entry := build(t, "far")
		m.Run(1000)
		// A loud write to the second page evicts the block; it then
		// re-records against that page's advanced generation.
		pn := entry / PageSize
		if err := p.Mem().Write((pn+1)*PageSize+PageSize/2, []byte{1}); err != nil {
			t.Fatal(err)
		}
		m.Run(1000)
		b := p.mem.bc.blocks[entry]
		if b == nil {
			t.Fatalf("no block cached at %#x", entry)
		}
		if len(b.pages) != 2 || b.pages[0] != pn || b.pages[1] != pn+1 {
			t.Fatalf("block pages %v, want [%#x %#x]", b.pages, pn, pn+1)
		}
		want := []uint64{p.mem.gens[pn], p.mem.gens[pn+1]}
		if len(b.gens) != 2 || b.gens[0] != want[0] || b.gens[1] != want[1] || want[1] == 0 {
			t.Fatalf("block gens %v, want %v (second nonzero)", b.gens, want)
		}
		if !b.fresh(p.mem) || p.Mem().BlockCacheStats().Hits == 0 {
			t.Fatalf("clean straddling block never validated: %+v", p.Mem().BlockCacheStats())
		}
	})
	for _, slot := range []string{"low", "high"} {
		t.Run("store-"+slot, func(t *testing.T) {
			m, p, entry := build(t, slot)
			m.Run(1000)
			if b := p.mem.bc.blocks[entry]; b == nil || b.fresh(p.mem) {
				t.Fatalf("block at %#x validates after storing into its own page", entry)
			}
			st := p.Mem().BlockCacheStats()
			if st.GenEvictions == 0 {
				t.Fatalf("stale block never caught at dispatch: %+v", st)
			}
			if p.Reg(3) != 7 || p.Exited() {
				t.Fatalf("guest misbehaved: r3=%d exited=%v", p.Reg(3), p.Exited())
			}
		})
	}
}

// TestLockstepGatePanicsOnDivergence: with the gate armed (what
// NewMachine does in the dynacut_lockstep build) a stale decode panics
// with the divergence detail instead of being logged, and SetExecMode
// disarms it.
func TestLockstepGatePanicsOnDivergence(t *testing.T) {
	build := func() (*Machine, *Process, uint64) {
		exe := buildExe(t, "test", `
.text
.global _start
_start:
loop:
	mov r3, 7
	jmp loop
`)
		m := NewMachine()
		m.SetExecMode(ModeLockstep)
		p, err := m.Load(exe)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		m.Run(1000)
		sym, err := exe.Symbol("loop")
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt the cached text below every invalidation hook.
		p.mem.pages[sym.Value/PageSize][sym.Value%PageSize+2] ^= 0x02
		return m, p, sym.Value
	}

	m, _, addr := build()
	m.divPanic = true
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "lockstep gate") || !strings.Contains(msg, fmt.Sprintf("%#x", addr)) {
				t.Fatalf("armed gate: recovered %q, want a divergence panic at %#x", msg, addr)
			}
		}()
		m.Run(1000)
	}()

	m, p, _ := build()
	m.divPanic = true
	m.SetExecMode(ModeLockstep)
	m.Run(1000)
	if m.CacheDivergenceCount() == 0 || p.Reg(3) != 5 {
		t.Fatalf("disarmed gate: %d divergences, r3=%d; want logged and live bytes run", m.CacheDivergenceCount(), p.Reg(3))
	}
}

// TestBlockCacheTLBStoreIntoCachedPage: a guest store into a page whose
// TLB write bit was set, made while a block recorded from that page is
// replaying, still evicts the block and stops the replay. The block's
// recording took the page off the store fast path; were it still on,
// the store would skip noteWrite and the replay would run on over the
// INT3 it just wrote.
func TestBlockCacheTLBStoreIntoCachedPage(t *testing.T) {
	exe := buildExe(t, "test", `
.text
.global _start
_start:
	mov r8, =buf
	mov r9, 204
loop:
	storeb [r8], r9
victim:
	mov r3, 7
	jmp loop
slot:
	.quad 0
.bss
buf: .space 8
`)
	writableText(t, exe)
	m := NewMachine()
	m.SetExecMode(ModeTranslate)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	sym := func(name string) uint64 {
		s, err := exe.Symbol(name)
		if err != nil {
			t.Fatal(err)
		}
		return s.Value
	}
	loop, victim, slot := sym("loop"), sym("victim"), sym("slot")
	pn := loop / PageSize
	if victim/PageSize != pn || slot/PageSize != pn {
		t.Fatalf("loop, victim and slot straddle pages: %#x %#x %#x", loop, victim, slot)
	}

	// A guest store into the text page: it evicts the page's blocks
	// and sets the page's write bit.
	m.Run(1000)
	if err := p.Mem().WriteU64(slot, 1); err != nil {
		t.Fatal(err)
	}
	if e := p.mem.tlbLookup(pn); e == nil || !e.write {
		t.Fatalf("store into the text page left no write bit: %+v", e)
	}
	// The loop re-records from the page, which takes it off the fast
	// path, and replays.
	hits := p.Mem().BlockCacheStats().Hits
	m.Run(1000)
	st := p.Mem().BlockCacheStats()
	if e := p.mem.tlbLookup(pn); e != nil && e.write {
		t.Fatal("a block cached from the page, yet its write bit is set")
	}
	if st.Hits == hits || p.Exited() {
		t.Fatalf("loop not replaying from the cache: exited=%v %+v", p.Exited(), st)
	}

	// Retarget the loop's store at its own next instruction.
	p.SetReg(8, victim)
	m.Run(1000)
	if got := p.Mem().BlockCacheStats().PageFlushes; got == st.PageFlushes {
		t.Fatalf("the store into the replaying block's page evicted nothing: %+v", p.Mem().BlockCacheStats())
	}
	if !p.Exited() || p.KilledBy() != SIGTRAP {
		t.Fatalf("replay ran past the INT3 the guest stored: exited=%v killed=%v r3=%d", p.Exited(), p.KilledBy(), p.Reg(3))
	}
}
