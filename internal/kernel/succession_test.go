package kernel

import (
	"bytes"
	"slices"
	"testing"

	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/isa"
)

// restoreAfter stands in for criu's dump → edit → kill → restore: it
// kills p, builds a successor with the VMA table vmas (p's own when
// nil), p's registers and p's pages, each passed through edit (which
// may return a patched copy, or nil to leave the page out), hands p's
// translation cache to it, and returns it.
func restoreAfter(t *testing.T, m *Machine, p *Process, vmas []VMA, edit func(pn uint64, pg []byte) []byte) *Process {
	t.Helper()
	if vmas == nil {
		vmas = p.mem.VMAs()
	}
	m.Kill(p.PID())
	q := m.NewRawProcess(p.Name(), p.Parent())
	for _, v := range vmas {
		if err := q.mem.Map(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, pn := range p.mem.PopulatedPages() {
		pg := p.mem.SharePage(pn)
		if edit != nil {
			pg = edit(pn, pg)
		}
		if _, mapped := q.mem.VMAAt(pn * PageSize); pg != nil && mapped {
			if err := q.mem.SetPage(pn, pg); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r := 0; r < isa.NumRegisters; r++ {
		q.SetReg(isa.Register(r), p.Reg(isa.Register(r)))
	}
	q.SetFlags(p.Flags())
	q.SetRIP(p.RIP())
	for s, act := range p.Sigactions() {
		q.SetSigaction(s, act)
	}
	q.Succeed(p)
	m.Remove(p.PID())
	return q
}

// patchAt returns an edit that writes b at addr on a copy of its page.
func patchAt(addr uint64, b byte) func(uint64, []byte) []byte {
	return func(pn uint64, pg []byte) []byte {
		if pn != addr/PageSize {
			return pg
		}
		pg = bytes.Clone(pg)
		pg[addr%PageSize] = b
		return pg
	}
}

// succession is what successionRun saw on the translating side: the
// predecessor's cached blocks and counters just before the restore, the
// successor's blocks just after the handoff, and the successor.
type succession struct {
	before, after []BlockInfo
	pred          BlockCacheStats
	q             *Process
}

// successionRun boots src on an interpreting and a translating machine,
// runs both for steps, restores both through restoreAfter with the same
// VMA and page edits, runs both for steps again, and checks that the
// successors agree.
func successionRun(t *testing.T, src string, steps uint64, vmas func([]VMA) []VMA, edit func(*delf.File) func(uint64, []byte) []byte) succession {
	t.Helper()
	exe := buildExe(t, "test", src)
	var s succession
	var succ [2]*Process
	var machines [2]*Machine
	for i, mode := range []ExecMode{ModeInterpret, ModeTranslate} {
		m := NewMachine()
		m.SetExecMode(mode)
		p, err := m.Load(exe)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		m.Run(steps)
		if p.Exited() {
			t.Fatalf("%v: guest exited before the restore", mode)
		}
		var v []VMA
		if vmas != nil {
			v = vmas(p.mem.VMAs())
		}
		s.before, s.pred = p.mem.CachedBlocks(), p.mem.BlockCacheStats()
		succ[i] = restoreAfter(t, m, p, v, edit(exe))
		s.after, s.q = succ[i].mem.CachedBlocks(), succ[i]
		m.Run(steps)
		machines[i] = m
	}
	ref, tx := succ[0], succ[1]
	if ref.Exited() != tx.Exited() || ref.KilledBy() != tx.KilledBy() || ref.RIP() != tx.RIP() || ref.insts != tx.insts {
		t.Fatalf("successors diverged: interpreter exited=%v/%v rip %#x insts %d, engine exited=%v/%v rip %#x insts %d",
			ref.Exited(), ref.KilledBy(), ref.RIP(), ref.insts, tx.Exited(), tx.KilledBy(), tx.RIP(), tx.insts)
	}
	for r := 0; r < isa.NumRegisters; r++ {
		if ref.Reg(isa.Register(r)) != tx.Reg(isa.Register(r)) {
			t.Fatalf("r%d diverged: interpreter %#x, engine %#x", r, ref.Reg(isa.Register(r)), tx.Reg(isa.Register(r)))
		}
	}
	if machines[0].Clock() != machines[1].Clock() {
		t.Fatalf("clock diverged: %d vs %d", machines[0].Clock(), machines[1].Clock())
	}
	if ref.mem.SharedPageCount() != tx.mem.SharedPageCount() || !slices.Equal(ref.mem.PopulatedPages(), tx.mem.PopulatedPages()) {
		t.Fatalf("page state diverged: shared %d vs %d, populated %#x vs %#x",
			ref.mem.SharedPageCount(), tx.mem.SharedPageCount(), ref.mem.PopulatedPages(), tx.mem.PopulatedPages())
	}
	if len(s.before) == 0 {
		t.Fatal("the predecessor cached nothing")
	}
	return s
}

func entries(bs []BlockInfo) []uint64 {
	out := make([]uint64, len(bs))
	for i, b := range bs {
		out[i] = b.Entry
	}
	return out
}

func symAddr(t *testing.T, exe *delf.File, name string) uint64 {
	t.Helper()
	sym, err := exe.Symbol(name)
	if err != nil {
		t.Fatal(err)
	}
	return sym.Value
}

func unedited(*delf.File) func(uint64, []byte) []byte { return nil }

// successionLoop runs forever through four small blocks on one page.
const successionLoop = `
.text
.global _start
_start:
	mov r1, 0
loop:
	call f
	call g
	add r1, 1
	jmp loop
f:
	add r2, 1
	ret
g:
	add r3, 2
	ret
`

// TestBlockCacheSuccessionKeepsUnchangedPages: with nothing edited,
// every block is kept, with its counters, and the successor records
// none of them again.
func TestBlockCacheSuccessionKeepsUnchangedPages(t *testing.T) {
	s := successionRun(t, successionLoop, 2000, nil, unedited)
	if !slices.Equal(entries(s.after), entries(s.before)) {
		t.Fatalf("kept %#x of %#x", entries(s.after), entries(s.before))
	}
	st := s.q.mem.BlockCacheStats()
	if st.Inherited != uint64(len(s.before)) || st.Translations != s.pred.Translations || st.Hits <= s.pred.Hits {
		t.Fatalf("successor counters %+v, predecessor %+v", st, s.pred)
	}
}

// TestBlockCacheSuccessionEvictsPatchedBlock: a byte patched inside one
// cached block evicts exactly that block, as a page flush; every other
// block on the page is kept, and the successor runs the patched code.
func TestBlockCacheSuccessionEvictsPatchedBlock(t *testing.T) {
	var g uint64
	s := successionRun(t, successionLoop, 2000, nil, func(exe *delf.File) func(uint64, []byte) []byte {
		g = symAddr(t, exe, "g")
		return patchAt(g+2, 5) // add r3, 2 → add r3, 5: the immediate's low byte
	})
	want := slices.DeleteFunc(entries(s.before), func(e uint64) bool { return e == g })
	if len(want) == len(s.before) {
		t.Fatalf("no block cached at g %#x: %#x", g, entries(s.before))
	}
	if got := entries(s.after); !slices.Equal(got, want) {
		t.Fatalf("kept %#x, want %#x (all but g's)", got, want)
	}
	if st := s.q.mem.BlockCacheStats(); st.PageFlushes != s.pred.PageFlushes+1 || st.Inherited != uint64(len(want)) {
		t.Fatalf("successor counters %+v, predecessor %+v", st, s.pred)
	}
}

// TestBlockCacheSuccessionDropsUnpopulatedPage: a page the successor
// does not carry drops every block that fetched from it, since a
// recording would populate it; blocks on the other pages are kept.
func TestBlockCacheSuccessionDropsUnpopulatedPage(t *testing.T) {
	const src = `
.text
.global _start
_start:
	mov r1, 0
back:
	call f
	jmp far
f:
	add r1, 1
	ret
	.space 4200
far:
	add r2, 1
	jmp back
`
	var farPN, f uint64
	s := successionRun(t, src, 2000, nil, func(exe *delf.File) func(uint64, []byte) []byte {
		farPN, f = symAddr(t, exe, "far")/PageSize, symAddr(t, exe, "f")
		return func(pn uint64, pg []byte) []byte {
			if pn == farPN {
				return nil
			}
			return pg
		}
	})
	onFar := func(b BlockInfo) bool { return slices.Contains(b.Pages, farPN) }
	if !slices.ContainsFunc(s.before, onFar) {
		t.Fatalf("no cached block fetched from page %#x", farPN)
	}
	if slices.ContainsFunc(s.after, onFar) {
		t.Fatalf("blocks on the unpopulated page %#x were kept: %+v", farPN, s.after)
	}
	if !slices.Contains(entries(s.after), f) {
		t.Fatalf("f's block %#x, on a carried page, was dropped: %#x", f, entries(s.after))
	}
}

// TestBlockCacheSuccessionRefusesLayoutChange: a successor whose VMA
// table differs starts with an empty cache, whether a VMA was added (as
// a handler injection does) or a permission changed.
func TestBlockCacheSuccessionRefusesLayoutChange(t *testing.T) {
	for name, vmas := range map[string]func([]VMA) []VMA{
		"added-vma": func(v []VMA) []VMA {
			return append(v, VMA{Start: 0x7000_0000, End: 0x7000_1000, Perm: delf.PermR | delf.PermX, Name: "lib:.text"})
		},
		"text-not-exec": func(v []VMA) []VMA {
			for i := range v {
				if v[i].Perm&delf.PermX != 0 {
					v[i].Perm = delf.PermR
				}
			}
			return v
		},
	} {
		t.Run(name, func(t *testing.T) {
			s := successionRun(t, successionLoop, 2000, vmas, unedited)
			if len(s.after) != 0 || s.q.mem.BlockCacheStats().Inherited != 0 {
				t.Fatalf("a changed VMA table kept %#x", entries(s.after))
			}
		})
	}
}

// TestAdoptTakesOnlyPagesTheDumpAloneHeld: a restored process adopts a
// page only if its dead predecessor held that very slice privately
// until the dump took it. A page a caller-kept snapshot also holds, a
// page the edit replaced and a page the successor already copied stay
// as they are, and nothing is adopted from a live predecessor.
func TestAdoptTakesOnlyPagesTheDumpAloneHeld(t *testing.T) {
	m := NewMachine()
	p := m.NewRawProcess("guest", 0)
	if err := p.mem.Map(rwVMA(0x1000, 0x5000)); err != nil {
		t.Fatal(err)
	}
	for pn := uint64(1); pn <= 4; pn++ {
		if err := p.mem.Write(pn*PageSize, []byte{byte(pn)}); err != nil {
			t.Fatal(err)
		}
	}
	kept := p.mem.SharePage(2) // a checkpoint the caller keeps
	dump := map[uint64][]byte{}
	for pn := uint64(1); pn <= 4; pn++ {
		dump[pn] = p.mem.SharePage(pn)
	}

	q := m.NewRawProcess("guest", 0)
	if err := q.mem.Map(rwVMA(0x1000, 0x5000)); err != nil {
		t.Fatal(err)
	}
	for pn, pg := range dump {
		if pn == 3 {
			pg = bytes.Clone(pg) // the edit replaced page 3
		}
		if err := q.mem.SetPage(pn, pg); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.mem.Write(4*PageSize, []byte{0x44}); err != nil { // copies page 4
		t.Fatal(err)
	}
	if n := q.Adopt(p); n != 0 {
		t.Fatalf("adopted %d pages from a live predecessor", n)
	}
	m.Kill(p.PID())
	if n := q.Adopt(p); n != 1 {
		t.Fatalf("adopted %d pages, want page 1 alone", n)
	}
	if got := q.mem.SharedPageCount(); got != 2 {
		t.Fatalf("%d copy-on-write pages after the adoption, want pages 2 and 3", got)
	}

	for pn := uint64(1); pn <= 4; pn++ {
		if err := q.mem.Write(pn*PageSize, []byte{0xEE}); err != nil {
			t.Fatal(err)
		}
	}
	if dump[1][0] != 0xEE {
		t.Fatal("a store into the adopted page copied it")
	}
	if kept[0] != 2 || dump[2][0] != 2 || dump[3][0] != 3 || dump[4][0] != 4 {
		t.Fatal("a store reached a page the successor did not adopt")
	}
}
