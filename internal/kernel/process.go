package kernel

import (
	"fmt"

	"github.com/dynacut/dynacut/internal/isa"
)

// Signal numbers (Linux values for familiarity).
type Signal int

// Signals the simulated kernel can deliver.
const (
	SIGILL  Signal = 4
	SIGTRAP Signal = 5 // raised by INT3; DynaCut's blocking mechanism
	SIGFPE  Signal = 8
	SIGSEGV Signal = 11
	SIGCHLD Signal = 17 // recorded but never delivered; reserved
	SIGSYS  Signal = 31 // syscall denied by the process's filter
)

func (s Signal) String() string {
	switch s {
	case SIGILL:
		return "SIGILL"
	case SIGTRAP:
		return "SIGTRAP"
	case SIGFPE:
		return "SIGFPE"
	case SIGSEGV:
		return "SIGSEGV"
	case SIGCHLD:
		return "SIGCHLD"
	case SIGSYS:
		return "SIGSYS"
	default:
		return fmt.Sprintf("SIG%d", int(s))
	}
}

// Sigaction holds a registered user signal handler. A zero Handler
// means default action (terminate). Restorer is the address the
// handler returns to; it must issue the sigreturn syscall.
type Sigaction struct {
	Handler  uint64
	Restorer uint64
}

// Signal frame layout pushed by the kernel on delivery (all offsets
// from the frame pointer passed to the handler in r3):
//
//	+0   saved RIP (the faulting instruction; handlers may rewrite it)
//	+8   saved flags (bit0 = Z, bit1 = L)
//	+16  saved r0..r15 (16 × 8 bytes; r15 is the pre-frame SP)
//
// Below the frame the kernel pushes the restorer address so that the
// handler's RET transfers to the restorer stub.
const (
	FrameRIPOff   = 0
	FrameFlagsOff = 8
	FrameRegsOff  = 16
	FrameSize     = 16 + 8*isa.NumRegisters
)

// Process is one simulated process.
type Process struct {
	pid    int
	parent int
	name   string

	regs   [isa.NumRegisters]uint64
	rip    uint64
	zf     bool
	lf     bool
	mem    *Memory
	sig    map[Signal]Sigaction
	fds    map[int]*fdesc
	nextFD int

	exited   bool
	exitCode int
	killedBy Signal

	stdout []byte
	stderr []byte

	insts      uint64 // retired instructions
	blockStart uint64 // current basic-block head (tracing)

	modules []Module // mapped binaries, in load order

	// sysFilter, when non-nil, is the seccomp-style allow list: a
	// syscall number absent from it kills the process with SIGSYS.
	sysFilter map[uint64]bool
}

// PID returns the process ID.
func (p *Process) PID() int { return p.pid }

// Parent returns the parent PID (0 for the initial process).
func (p *Process) Parent() int { return p.parent }

// Name returns the program name the process was loaded from.
func (p *Process) Name() string { return p.name }

// Exited reports whether the process has terminated.
func (p *Process) Exited() bool { return p.exited }

// ExitCode returns the exit status (128+signal for signal deaths).
func (p *Process) ExitCode() int { return p.exitCode }

// KilledBy returns the fatal signal, or 0 for a normal exit.
func (p *Process) KilledBy() Signal { return p.killedBy }

// Stdout returns everything the process wrote to fd 1.
func (p *Process) Stdout() []byte { return append([]byte(nil), p.stdout...) }

// Mem exposes the address space (debugger/checkpoint view).
func (p *Process) Mem() *Memory { return p.mem }

// RIP returns the current instruction pointer.
func (p *Process) RIP() uint64 { return p.rip }

// SetRIP moves the instruction pointer (restore path).
func (p *Process) SetRIP(v uint64) { p.rip = v; p.blockStart = v }

// Reg returns register r.
func (p *Process) Reg(r isa.Register) uint64 { return p.regs[r] }

// SetReg sets register r (restore path).
func (p *Process) SetReg(r isa.Register, v uint64) { p.regs[r] = v }

// Flags returns the Z and L flags packed as in the signal frame.
func (p *Process) Flags() uint64 {
	var f uint64
	if p.zf {
		f |= 1
	}
	if p.lf {
		f |= 2
	}
	return f
}

// SetFlags unpacks flags (restore path).
func (p *Process) SetFlags(f uint64) {
	p.zf = f&1 != 0
	p.lf = f&2 != 0
}

// Sigactions returns a copy of the registered signal handlers.
func (p *Process) Sigactions() map[Signal]Sigaction {
	out := make(map[Signal]Sigaction, len(p.sig))
	for k, v := range p.sig {
		out[k] = v
	}
	return out
}

// SetSigaction registers a handler (restore path; guests use the
// sigaction syscall).
func (p *Process) SetSigaction(s Signal, act Sigaction) {
	if act.Handler == 0 {
		delete(p.sig, s)
		return
	}
	p.sig[s] = act
}

// SyscallFilter returns the allow list (sorted), or nil when all
// system calls are permitted.
func (p *Process) SyscallFilter() []uint64 {
	if p.sysFilter == nil {
		return nil
	}
	out := make([]uint64, 0, len(p.sysFilter))
	for nr := range p.sysFilter {
		out = append(out, nr)
	}
	sortU64(out)
	return out
}

// SetSyscallFilter installs a seccomp-style allow list (nil removes
// the filter). Like real seccomp, callers should always include
// SysExit and SysSigreturn or the process cannot even die cleanly.
func (p *Process) SetSyscallFilter(allowed []uint64) {
	if allowed == nil {
		p.sysFilter = nil
		return
	}
	p.sysFilter = make(map[uint64]bool, len(allowed))
	for _, nr := range allowed {
		p.sysFilter[nr] = true
	}
}

func sortU64(v []uint64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j-1] > v[j]; j-- {
			v[j-1], v[j] = v[j], v[j-1]
		}
	}
}

// FDs describes the open descriptors for checkpointing, sorted by fd.
func (p *Process) FDs() []FDInfo {
	out := make([]FDInfo, 0, len(p.fds))
	for fd := 0; fd < p.nextFD; fd++ {
		d, ok := p.fds[fd]
		if !ok {
			continue
		}
		info := FDInfo{FD: fd, Kind: d.kind}
		switch d.kind {
		case FDStdio:
			info.StdNo = d.stdNo
		case FDListener:
			info.Port = d.lst.port
		case FDConn:
			info.ConnID = d.cn.id
			info.Port = d.cn.port
			info.SideA = d.sideA
		}
		out = append(out, info)
	}
	return out
}

func newProcess(pid, parent int, name string) *Process {
	p := &Process{
		pid:    pid,
		parent: parent,
		name:   name,
		mem:    newMemory(),
		sig:    map[Signal]Sigaction{},
		fds:    map[int]*fdesc{},
	}
	for i := 0; i < 3; i++ {
		p.fds[i] = &fdesc{kind: FDStdio, stdNo: i}
	}
	p.nextFD = 3
	return p
}

func (p *Process) allocFD(d *fdesc) int {
	fd := p.nextFD
	p.nextFD++
	p.fds[fd] = d
	return fd
}
