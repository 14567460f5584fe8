package kernel

// FuzzBlockCacheDecode throws random programs at the translating
// engine — both structurally valid ones from the internal/disasm
// generator (optionally corrupted with an INT3 or a random byte
// smashed mid-stream) and entirely raw byte soup — and checks the
// three properties the satellite demands:
//
//  1. The translator never panics, whatever it decodes.
//  2. No cached block ever crosses a block terminator: an INT3 (or
//     any trap, branch, call, return, or syscall) may only appear as
//     a block's final instruction — the one exception being the
//     direct unconditional JMPs a superblock chains across.
//  3. Execution through the cache never diverges from single-step
//     interpretation: final registers, RIP, flags, retired counts,
//     clock and exit state must match instruction-for-instruction,
//     and lockstep mode must find zero stale decodes.
//
// Half the budget in, shape's upper bits may restore the guest in
// place (restoreAfter: dump, patch, kill, restore), handing the cache
// to the successor: unpatched, with an INT3, or with a seed byte, at a
// seed-chosen text offset. The successor runs the other half and is
// the process compared.

import (
	"testing"

	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/disasm"
	"github.com/dynacut/dynacut/internal/isa"
)

const fuzzBase uint64 = 0x400000

// loadRaw maps code as the text of a fresh single-process machine.
// The text VMA is RWX so random STOREs can hit it — exactly the
// self-modification the invalidation protocol must survive.
func loadRaw(t *testing.T, code []byte, mode ExecMode) (*Machine, *Process) {
	exe := &delf.File{
		Type:  delf.TypeExec,
		Name:  "fuzz",
		Entry: fuzzBase,
		Sections: []*delf.Section{{
			Name: delf.SecText, Addr: fuzzBase, Size: uint64(len(code)),
			Perm: delf.PermR | delf.PermW | delf.PermX, Data: code,
		}},
		Symbols: []delf.Symbol{{
			Name: "_start", Value: fuzzBase, Size: uint64(len(code)),
			Kind: delf.SymFunc, Global: true,
		}},
	}
	m := NewMachine()
	m.SetExecMode(mode)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return m, p
}

// checkBlockInvariants asserts no cached block crosses a terminator.
func checkBlockInvariants(t *testing.T, p *Process) {
	t.Helper()
	for _, bi := range p.Mem().CachedBlocks() {
		for i, in := range bi.Insts {
			if i == len(bi.Insts)-1 {
				continue // terminators end blocks; the last slot is theirs
			}
			if in.Op == isa.OpINT3 {
				t.Fatalf("cached block %#x crosses an INT3 at %#x: %v", bi.Entry, bi.Addrs[i], bi.Insts)
			}
			if terminator(in.Op) && in.Op != isa.OpJMP {
				t.Fatalf("cached block %#x crosses terminator %v at %#x", bi.Entry, in.Op, bi.Addrs[i])
			}
		}
	}
}

func FuzzBlockCacheDecode(f *testing.F) {
	f.Add([]byte{0x00}, uint8(0))
	f.Add([]byte{0x90, 0x90, 0xC3}, uint8(1))                  // nop nop ret, raw
	f.Add([]byte{0xCC}, uint8(1))                              // bare int3, raw
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(0))     // generated
	f.Add([]byte{3, 3, 3, 0, 1, 2, 250, 251, 252}, uint8(2))   // generated + int3 splice
	f.Add([]byte{0xFF, 0xFE, 0x00, 0x41, 0x99}, uint8(1))      // junk opcodes
	f.Add([]byte{17, 42, 0, 0, 13, 13, 200, 100, 3}, uint8(3)) // generated + byte smash
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(4))     // generated, restored unpatched
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, uint8(8))      // generated, restored with an INT3
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, uint8(12))     // generated, restored with a byte patch

	f.Fuzz(func(t *testing.T, seed []byte, shape uint8) {
		if len(seed) == 0 || len(seed) > 512 {
			return
		}
		var code []byte
		switch shape % 4 {
		case 0: // structurally valid program
			code = disasm.GenProgram(seed)
		case 1: // raw byte soup straight into the decoder
			code = append([]byte(nil), seed...)
		case 2: // valid program with an INT3 spliced between halves
			h := len(seed) / 2
			code = disasm.GenProgram(seed[:h])
			code = append(code, 0xCC)
			code = append(code, disasm.GenProgram(seed[h:])...)
		case 3: // valid program with one byte smashed mid-stream
			code = disasm.GenProgram(seed)
			code[int(seed[0])%len(code)] = seed[len(seed)-1]
		}

		const budget = 4096
		run := func(mode ExecMode) (*Machine, *Process) {
			m, p := loadRaw(t, code, mode)
			op := shape / 4 % 4
			if op == 0 {
				m.Run(budget)
				return m, p
			}
			m.Run(budget / 2)
			if p.Exited() {
				return m, p
			}
			var edit func(uint64, []byte) []byte
			if op > 1 {
				b := byte(0xCC)
				if op == 3 {
					b = seed[len(seed)/2]
				}
				edit = patchAt(fuzzBase+uint64(seed[0])*uint64(len(seed)+1)%uint64(len(code)), b)
			}
			p = restoreAfter(t, m, p, nil, edit)
			m.Run(budget / 2)
			return m, p
		}
		ref, refP := run(ModeInterpret)

		for _, mode := range []ExecMode{ModeTranslate, ModeLockstep} {
			tx, txP := run(mode)

			if refP.Exited() != txP.Exited() || refP.ExitCode() != txP.ExitCode() || refP.KilledBy() != txP.KilledBy() {
				t.Fatalf("%v: exit diverged: interp %v/%d/%v, engine %v/%d/%v",
					mode, refP.Exited(), refP.ExitCode(), refP.KilledBy(),
					txP.Exited(), txP.ExitCode(), txP.KilledBy())
			}
			if refP.RIP() != txP.RIP() {
				t.Fatalf("%v: rip diverged: %#x vs %#x", mode, refP.RIP(), txP.RIP())
			}
			if refP.insts != txP.insts {
				t.Fatalf("%v: insts diverged: %d vs %d", mode, refP.insts, txP.insts)
			}
			if ref.Clock() != tx.Clock() {
				t.Fatalf("%v: clock diverged: %d vs %d", mode, ref.Clock(), tx.Clock())
			}
			for r := 0; r < isa.NumRegisters; r++ {
				if refP.Reg(isa.Register(r)) != txP.Reg(isa.Register(r)) {
					t.Fatalf("%v: r%d diverged: %#x vs %#x", mode, r, refP.Reg(isa.Register(r)), txP.Reg(isa.Register(r)))
				}
			}
			if refP.Flags() != txP.Flags() {
				t.Fatalf("%v: flags diverged: %#x vs %#x", mode, refP.Flags(), txP.Flags())
			}
			if n := tx.CacheDivergenceCount(); n != 0 {
				t.Fatalf("%v: %d stale decodes: %v", mode, n, tx.CacheDivergences())
			}
			checkBlockInvariants(t, txP)
		}
	})
}
