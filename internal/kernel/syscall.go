package kernel

// Syscall numbers, passed in r0; arguments in r1..r5; the result
// replaces r0. The guest-visible ABI is documented in
// internal/apps/libc, which wraps each of these.
const (
	SysExit      = 1  // (code)
	SysWrite     = 2  // (fd, buf, len) -> n | ^0 on error
	SysRead      = 3  // (fd, buf, len) -> n; blocks until data/EOF
	SysSocket    = 4  // () -> fd
	SysBind      = 5  // (fd, port) -> 0 | ^0
	SysListen    = 6  // (fd) -> 0 | ^0
	SysAccept    = 7  // (fd) -> connfd; blocks
	SysClose     = 8  // (fd) -> 0 | ^0
	SysFork      = 9  // () -> child pid | 0 in child
	SysGetPID    = 10 // () -> pid
	SysSigaction = 11 // (signo, handler, restorer) -> 0
	SysSigreturn = 12 // (frame)
	SysClock     = 13 // () -> machine ticks
	SysYield     = 14 // () cooperative reschedule
	SysNudge     = 15 // (arg) notify tracer: initialization finished
	SysWait      = 16 // () -> (pid<<8|code) of any exited child | ^0
)

// errRet is the guest-visible -1.
const errRet = ^uint64(0)

// syscall executes the system call at p.rip (a SYS instruction whose
// end is next). It returns false if the call would block; the
// instruction is then retried on the next schedule.
func (m *Machine) syscall(p *Process, next uint64) bool {
	nr := p.regs[0]
	if m.syshook != nil {
		m.syshook(p.pid, nr)
	}
	if m.obs != nil {
		m.obs.Add("kernel.syscalls", 1)
	}
	if p.sysFilter != nil && !p.sysFilter[nr] {
		// seccomp SECCOMP_RET_KILL semantics.
		m.terminate(p, 128+int(SIGSYS), SIGSYS)
		return true
	}
	switch nr {
	case SysExit:
		m.terminate(p, int(p.regs[1]), 0)
		return true
	case SysWrite:
		p.regs[0] = m.sysWrite(p)
	case SysRead:
		n, wouldBlock := m.sysRead(p)
		if wouldBlock {
			return false
		}
		p.regs[0] = n
	case SysSocket:
		p.regs[0] = uint64(p.allocFD(&fdesc{kind: FDListener}))
	case SysBind:
		p.regs[0] = m.sysBind(p)
	case SysListen:
		// Binding already registered the listener; accept a no-op.
		p.regs[0] = 0
	case SysAccept:
		fd, wouldBlock := m.sysAccept(p)
		if wouldBlock {
			return false
		}
		p.regs[0] = fd
	case SysClose:
		d, ok := p.fds[int(p.regs[1])]
		if !ok {
			p.regs[0] = errRet
			break
		}
		m.closeFD(p, d)
		delete(p.fds, int(p.regs[1]))
		p.regs[0] = 0
	case SysFork:
		p.regs[0] = m.sysFork(p, next)
	case SysGetPID:
		p.regs[0] = uint64(p.pid)
	case SysSigaction:
		p.SetSigaction(Signal(p.regs[1]), Sigaction{Handler: p.regs[2], Restorer: p.regs[3]})
		p.regs[0] = 0
	case SysSigreturn:
		m.sigreturn(p, p.regs[1])
		return true // rip restored from the frame; do not advance
	case SysClock:
		p.regs[0] = m.clock
	case SysYield:
		p.regs[0] = 0
	case SysNudge:
		// Set the result and step past the SYS before the callback
		// runs: a callback that re-enters Run resumes the process after
		// its nudge instead of issuing it again.
		p.regs[0] = 0
		p.rip = next
		if m.nudge != nil {
			m.nudge(p.pid, p.regs[1])
		}
		return true
	case SysWait:
		p.regs[0] = m.sysWait(p)
	default:
		p.regs[0] = errRet
	}
	p.rip = next
	return true
}

func (m *Machine) sysWrite(p *Process) uint64 {
	fd, buf, n := int(p.regs[1]), p.regs[2], int(p.regs[3])
	d, ok := p.fds[fd]
	if !ok || n < 0 {
		return errRet
	}
	data, err := p.mem.ReadGuest(buf, n)
	if err != nil {
		return errRet
	}
	switch d.kind {
	case FDStdio:
		if d.stdNo == 2 {
			p.stderr = append(p.stderr, data...)
		} else {
			p.stdout = append(p.stdout, data...)
		}
		return uint64(n)
	case FDConn:
		if d.sideA {
			if d.cn.bClosed {
				return errRet
			}
			d.cn.a2b = append(d.cn.a2b, data...)
		} else {
			if d.cn.aClosed && len(d.cn.b2a) == 0 && d.cn.bClosed {
				return errRet
			}
			d.cn.b2a = append(d.cn.b2a, data...)
		}
		return uint64(n)
	default:
		return errRet
	}
}

// sysRead returns (result, wouldBlock).
func (m *Machine) sysRead(p *Process) (uint64, bool) {
	fd, buf, n := int(p.regs[1]), p.regs[2], int(p.regs[3])
	d, ok := p.fds[fd]
	if !ok || n < 0 {
		return errRet, false
	}
	switch d.kind {
	case FDStdio:
		return 0, false // stdin: immediate EOF
	case FDConn:
		var src *[]byte
		var peerClosed bool
		if d.sideA {
			src = &d.cn.b2a
			peerClosed = d.cn.bClosed
		} else {
			src = &d.cn.a2b
			peerClosed = d.cn.aClosed
		}
		if len(*src) == 0 {
			if peerClosed {
				return 0, false // EOF
			}
			return 0, true // would block
		}
		k := n
		if k > len(*src) {
			k = len(*src)
		}
		if err := p.mem.WriteGuest(buf, (*src)[:k]); err != nil {
			return errRet, false
		}
		*src = (*src)[k:]
		return uint64(k), false
	default:
		return errRet, false
	}
}

func (m *Machine) sysBind(p *Process) uint64 {
	fd, port := int(p.regs[1]), uint16(p.regs[2])
	d, ok := p.fds[fd]
	if !ok || d.kind != FDListener || d.lst != nil {
		return errRet
	}
	l, err := m.net.bind(port)
	if err != nil {
		return errRet
	}
	d.lst = l
	return 0
}

// sysAccept returns (connfd, wouldBlock).
func (m *Machine) sysAccept(p *Process) (uint64, bool) {
	fd := int(p.regs[1])
	d, ok := p.fds[fd]
	if !ok || d.kind != FDListener || d.lst == nil {
		return errRet, false
	}
	if len(d.lst.backlog) == 0 {
		if d.lst.closed {
			return errRet, false
		}
		return 0, true
	}
	c := d.lst.backlog[0]
	d.lst.backlog = d.lst.backlog[1:]
	nfd := p.allocFD(&fdesc{kind: FDConn, cn: c, sideA: false})
	return uint64(nfd), false
}

// sysFork clones the calling process. The child resumes at the same
// point with r0 = 0; the parent receives the child PID.
func (m *Machine) sysFork(p *Process, next uint64) uint64 {
	m.nextPID++
	child := &Process{
		pid:     m.nextPID,
		parent:  p.pid,
		name:    p.name,
		regs:    p.regs,
		rip:     next,
		zf:      p.zf,
		lf:      p.lf,
		mem:     p.mem.CloneCoW(),
		sig:     map[Signal]Sigaction{},
		fds:     map[int]*fdesc{},
		nextFD:  p.nextFD,
		modules: append([]Module(nil), p.modules...),
	}
	for s, a := range p.sig {
		child.sig[s] = a
	}
	// seccomp filters are inherited across fork.
	if p.sysFilter != nil {
		child.sysFilter = make(map[uint64]bool, len(p.sysFilter))
		for nr := range p.sysFilter {
			child.sysFilter[nr] = true
		}
	}
	// Descriptors are shared objects (dup semantics): master and
	// worker can both accept on an inherited listener.
	for fd, d := range p.fds {
		cp := *d
		child.fds[fd] = &cp
	}
	child.regs[0] = 0
	child.blockStart = next
	m.addProcess(child)
	return uint64(child.pid)
}

// sysWait reaps the lowest-PID exited child: returns pid<<8 |
// (code&0xff), or -1 if no child has exited (non-blocking; respawn
// loops poll it).
func (m *Machine) sysWait(p *Process) uint64 {
	for _, c := range m.procs {
		if c.parent == p.pid && c.exited {
			m.Remove(c.pid)
			return uint64(c.pid)<<8 | uint64(c.exitCode&0xff)
		}
	}
	return errRet
}
