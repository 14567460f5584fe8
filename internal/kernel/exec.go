package kernel

import (
	"github.com/dynacut/dynacut/internal/isa"
)

// maxInstLen is the longest instruction encoding (MOVri).
const maxInstLen = 10

// step executes one instruction of p. It returns false when the
// process would block on a syscall (RIP unchanged, no clock charge).
func (m *Machine) step(p *Process) bool {
	in, ok := m.fetchDecode(p)
	if !ok {
		return true
	}
	return m.exec1(p, in, p.rip)
}

// fetchDecode performs the instruction fetch and decode at p.rip.
// Both failure modes fault SIGSEGV exactly like executing unmapped or
// undecodable bytes always has: the step is charged to the clock but
// does not retire (p.insts unchanged).
func (m *Machine) fetchDecode(p *Process) (isa.Inst, bool) {
	var buf [maxInstLen]byte
	n, err := p.mem.fetch(p.rip, buf[:])
	if err != nil {
		m.fault(p, SIGSEGV, p.rip)
		return isa.Inst{}, false
	}
	in, err := isa.Decode(buf[:n])
	if err != nil {
		m.fault(p, SIGSEGV, p.rip)
		return isa.Inst{}, false
	}
	return in, true
}

// exec1 executes one already-decoded instruction located at addr
// (== p.rip). It is the single semantic core shared by the
// interpreter (which fetches and decodes every time) and the
// block-cache engine (which replays pre-decoded instructions), so the
// two execution modes cannot drift: ticks, page writes, trap ordering
// and tracer callbacks all happen here. It returns false when the
// process would block on a syscall (RIP unchanged, no clock charge).
func (m *Machine) exec1(p *Process, in isa.Inst, addr uint64) bool {
	next := addr + uint64(in.Size)

	switch in.Op {
	case isa.OpNOP:
		p.rip = next
	case isa.OpMOVri:
		p.regs[in.A] = uint64(in.Imm)
		p.rip = next
	case isa.OpMOVrr:
		p.regs[in.A] = p.regs[in.B]
		p.rip = next
	case isa.OpLOAD:
		v, err := p.mem.ReadU64(p.regs[in.B] + uint64(in.Imm))
		if err != nil {
			m.fault(p, SIGSEGV, p.regs[in.B]+uint64(in.Imm))
			return true
		}
		p.regs[in.A] = v
		p.rip = next
	case isa.OpSTORE:
		if err := p.mem.WriteU64(p.regs[in.B]+uint64(in.Imm), p.regs[in.A]); err != nil {
			m.fault(p, SIGSEGV, p.regs[in.B]+uint64(in.Imm))
			return true
		}
		p.rip = next
	case isa.OpLOADB:
		b, err := p.mem.ReadU8(p.regs[in.B] + uint64(in.Imm))
		if err != nil {
			m.fault(p, SIGSEGV, p.regs[in.B]+uint64(in.Imm))
			return true
		}
		p.regs[in.A] = uint64(b)
		p.rip = next
	case isa.OpSTOREB:
		if err := p.mem.WriteU8(p.regs[in.B]+uint64(in.Imm), byte(p.regs[in.A])); err != nil {
			m.fault(p, SIGSEGV, p.regs[in.B]+uint64(in.Imm))
			return true
		}
		p.rip = next
	case isa.OpADDrr:
		p.regs[in.A] += p.regs[in.B]
		p.rip = next
	case isa.OpSUBrr:
		p.regs[in.A] -= p.regs[in.B]
		p.rip = next
	case isa.OpMULrr:
		p.regs[in.A] *= p.regs[in.B]
		p.rip = next
	case isa.OpDIVrr:
		if p.regs[in.B] == 0 {
			m.fault(p, SIGFPE, addr)
			return true
		}
		p.regs[in.A] /= p.regs[in.B]
		p.rip = next
	case isa.OpANDrr:
		p.regs[in.A] &= p.regs[in.B]
		p.rip = next
	case isa.OpORrr:
		p.regs[in.A] |= p.regs[in.B]
		p.rip = next
	case isa.OpXORrr:
		p.regs[in.A] ^= p.regs[in.B]
		p.rip = next
	case isa.OpSHLrr:
		p.regs[in.A] <<= p.regs[in.B] & 63
		p.rip = next
	case isa.OpSHRrr:
		p.regs[in.A] >>= p.regs[in.B] & 63
		p.rip = next
	case isa.OpADDri:
		p.regs[in.A] += uint64(in.Imm)
		p.rip = next
	case isa.OpSUBri:
		p.regs[in.A] -= uint64(in.Imm)
		p.rip = next
	case isa.OpMULri:
		p.regs[in.A] *= uint64(in.Imm)
		p.rip = next
	case isa.OpANDri:
		p.regs[in.A] &= uint64(in.Imm)
		p.rip = next
	case isa.OpORri:
		p.regs[in.A] |= uint64(in.Imm)
		p.rip = next
	case isa.OpXORri:
		p.regs[in.A] ^= uint64(in.Imm)
		p.rip = next
	case isa.OpSHLri:
		p.regs[in.A] <<= uint64(in.Imm) & 63
		p.rip = next
	case isa.OpSHRri:
		p.regs[in.A] >>= uint64(in.Imm) & 63
		p.rip = next
	case isa.OpCMPrr:
		a, b := p.regs[in.A], p.regs[in.B]
		p.zf = a == b
		p.lf = int64(a) < int64(b)
		p.rip = next
	case isa.OpCMPri:
		a, b := p.regs[in.A], uint64(in.Imm)
		p.zf = a == b
		p.lf = int64(a) < int64(b)
		p.rip = next
	case isa.OpJMP:
		m.endBlock(p, addr, in.Size)
		p.rip = next + uint64(in.Imm)
	case isa.OpJE, isa.OpJNE, isa.OpJL, isa.OpJG, isa.OpJLE, isa.OpJGE:
		m.endBlock(p, addr, in.Size)
		taken := false
		switch in.Op {
		case isa.OpJE:
			taken = p.zf
		case isa.OpJNE:
			taken = !p.zf
		case isa.OpJL:
			taken = p.lf
		case isa.OpJG:
			taken = !p.lf && !p.zf
		case isa.OpJLE:
			taken = p.lf || p.zf
		case isa.OpJGE:
			taken = !p.lf
		}
		if taken {
			p.rip = next + uint64(in.Imm)
		} else {
			p.rip = next
		}
	case isa.OpJMPr:
		m.endBlock(p, addr, in.Size)
		p.rip = p.regs[in.A]
	case isa.OpCALL:
		m.endBlock(p, addr, in.Size)
		if !m.push(p, next) {
			return true
		}
		p.rip = next + uint64(in.Imm)
	case isa.OpCALLr:
		m.endBlock(p, addr, in.Size)
		if !m.push(p, next) {
			return true
		}
		p.rip = p.regs[in.A]
	case isa.OpRET:
		m.endBlock(p, addr, in.Size)
		v, ok := m.pop(p)
		if !ok {
			return true
		}
		p.rip = v
	case isa.OpPUSH:
		if !m.push(p, p.regs[in.A]) {
			return true
		}
		p.rip = next
	case isa.OpPOP:
		v, ok := m.pop(p)
		if !ok {
			return true
		}
		p.regs[in.A] = v
		p.rip = next
	case isa.OpLEA:
		p.regs[in.A] = next + uint64(in.Imm)
		p.rip = next
	case isa.OpSYS:
		if !m.syscall(p, next) {
			return false // would block: retry this instruction later
		}
	case isa.OpINT3:
		// End the block *before* the trap: the INT3 byte itself was
		// reached but the original code there never runs.
		m.endBlockAt(p, addr)
		m.fault(p, SIGTRAP, addr)
	case isa.OpHLT:
		m.endBlockAt(p, addr)
		m.fault(p, SIGSEGV, addr)
	default:
		m.fault(p, SIGILL, addr)
	}

	p.insts++
	p.blockStartIfNeeded()
	return true
}

// blockStartIfNeeded begins a new basic block after a control
// transfer ended the previous one.
func (p *Process) blockStartIfNeeded() {
	if p.blockStart == 0 {
		p.blockStart = p.rip
	}
}

// endBlock reports a completed basic block that ends with the
// instruction at addr (inclusive).
func (m *Machine) endBlock(p *Process, addr uint64, size int) {
	if m.tracer != nil && p.blockStart != 0 {
		m.tracer.OnBlock(p.pid, p.blockStart, addr+uint64(size)-p.blockStart)
	}
	p.blockStart = 0
}

// endBlockAt reports a block cut short *before* addr (trap/fault at
// addr: the bytes at addr never executed as original code).
func (m *Machine) endBlockAt(p *Process, addr uint64) {
	if m.tracer != nil && p.blockStart != 0 && addr > p.blockStart {
		m.tracer.OnBlock(p.pid, p.blockStart, addr-p.blockStart)
	}
	p.blockStart = 0
}

func (m *Machine) push(p *Process, v uint64) bool {
	sp := p.regs[isa.SP] - 8
	if err := p.mem.WriteU64(sp, v); err != nil {
		m.fault(p, SIGSEGV, sp)
		return false
	}
	p.regs[isa.SP] = sp
	return true
}

func (m *Machine) pop(p *Process) (uint64, bool) {
	sp := p.regs[isa.SP]
	v, err := p.mem.ReadU64(sp)
	if err != nil {
		m.fault(p, SIGSEGV, sp)
		return 0, false
	}
	p.regs[isa.SP] = sp + 8
	return v, true
}

// fault delivers a signal: if the process registered a handler, a
// signal frame is pushed and control transfers to the handler with
// r1=signo, r2=fault address, r3=frame pointer; otherwise the process
// is terminated with 128+signo (the default action — what static
// debloaters do when removed code is reached).
func (m *Machine) fault(p *Process, sig Signal, faultAddr uint64) {
	if m.obs != nil {
		m.obs.Add("kernel.signals", 1)
		if sig == SIGTRAP {
			m.obs.Add("kernel.traps", 1)
		}
	}
	act, ok := p.sig[sig]
	if !ok || act.Handler == 0 {
		m.terminate(p, 128+int(sig), sig)
		return
	}
	frame := p.regs[isa.SP] - FrameSize
	ok = true
	ok = ok && p.mem.WriteU64(frame+FrameRIPOff, p.rip) == nil
	ok = ok && p.mem.WriteU64(frame+FrameFlagsOff, p.Flags()) == nil
	for i := 0; ok && i < isa.NumRegisters; i++ {
		ok = p.mem.WriteU64(frame+FrameRegsOff+uint64(8*i), p.regs[i]) == nil
	}
	// Push the restorer return address below the frame.
	ok = ok && p.mem.WriteU64(frame-8, act.Restorer) == nil
	if !ok {
		// Stack unusable: double fault, terminate.
		m.terminate(p, 128+int(SIGSEGV), SIGSEGV)
		return
	}
	p.regs[isa.SP] = frame - 8
	p.regs[1] = uint64(sig)
	p.regs[2] = faultAddr
	p.regs[3] = frame
	p.rip = act.Handler
	p.blockStart = 0
}

// sigreturn restores the context saved in the frame at frameAddr.
func (m *Machine) sigreturn(p *Process, frameAddr uint64) {
	rip, err1 := p.mem.ReadU64(frameAddr + FrameRIPOff)
	flags, err2 := p.mem.ReadU64(frameAddr + FrameFlagsOff)
	if err1 != nil || err2 != nil {
		m.terminate(p, 128+int(SIGSEGV), SIGSEGV)
		return
	}
	for i := 0; i < isa.NumRegisters; i++ {
		v, err := p.mem.ReadU64(frameAddr + FrameRegsOff + uint64(8*i))
		if err != nil {
			m.terminate(p, 128+int(SIGSEGV), SIGSEGV)
			return
		}
		p.regs[i] = v
	}
	p.SetFlags(flags)
	p.rip = rip
	p.blockStart = 0
}
