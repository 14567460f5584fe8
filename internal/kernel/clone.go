package kernel

// Machine cloning: the fleet layer (internal/fleet) spawns N replica
// guests from one booted template instead of paying N boots. The clone
// is a deep copy of all guest-visible state — process table, address
// spaces (copy-on-write, so pristine pages are shared until written),
// virtual network, disk, clock — while host-side instrumentation
// (tracer, hooks, observer, watchdog) is deliberately NOT copied: each
// replica gets its own wiring, and sharing a tracer across machines
// would corrupt its per-machine bookkeeping.

// Clone returns an independent deep copy of the machine. Guest state
// (processes, registers, memory, signal handlers, descriptors, bound
// listeners, established connections, disk files, virtual clock, PID
// allocator) is duplicated; page contents are shared copy-on-write via
// Memory.CloneCoW. Tracer, nudge/syscall/fault hooks, observer and
// tick watchdog are left nil on the clone.
func (m *Machine) Clone() *Machine {
	c := &Machine{
		procs:    make([]*Process, 0, len(m.procs)),
		nextPID:  m.nextPID,
		clock:    m.clock,
		execMode: m.execMode,
		divPanic: m.divPanic,
		net: &network{
			listeners: make(map[uint16]*listener, len(m.net.listeners)),
			conns:     make(map[uint64]*conn, len(m.net.conns)),
			nextConn:  m.net.nextConn,
		},
		disk: make(map[string]*diskFile, len(m.disk)),
	}
	// Disk files — blob and parsed binary — are immutable once written
	// (WriteFile copies, ReadFile copies out), so they are shared; only
	// the map itself is per-machine.
	for name, f := range m.disk {
		c.disk[name] = f
	}

	// Network: copy every connection and listener once, preserving the
	// sharing topology (a listener inherited across fork is one object
	// referenced by many descriptors).
	connMap := make(map[*conn]*conn, len(m.net.conns))
	cloneConn := func(cn *conn) *conn {
		if cn == nil {
			return nil
		}
		if nc, ok := connMap[cn]; ok {
			return nc
		}
		nc := &conn{
			id: cn.id, port: cn.port,
			a2b:     append([]byte(nil), cn.a2b...),
			b2a:     append([]byte(nil), cn.b2a...),
			aClosed: cn.aClosed, bClosed: cn.bClosed,
		}
		connMap[cn] = nc
		return nc
	}
	for id, cn := range m.net.conns {
		c.net.conns[id] = cloneConn(cn)
	}
	lstMap := make(map[*listener]*listener, len(m.net.listeners))
	cloneListener := func(l *listener) *listener {
		if l == nil {
			return nil
		}
		if nl, ok := lstMap[l]; ok {
			return nl
		}
		nl := &listener{port: l.port, closed: l.closed}
		for _, bc := range l.backlog {
			nl.backlog = append(nl.backlog, cloneConn(bc))
		}
		lstMap[l] = nl
		return nl
	}
	for port, l := range m.net.listeners {
		c.net.listeners[port] = cloneListener(l)
	}

	// Processes. Descriptors use dup semantics (one *fdesc shared
	// across fork), so identity must be preserved: closeFD/referenced
	// compare fdesc pointers.
	fdMap := make(map[*fdesc]*fdesc)
	for _, p := range m.procs {
		np := &Process{
			pid:        p.pid,
			parent:     p.parent,
			name:       p.name,
			regs:       p.regs,
			rip:        p.rip,
			zf:         p.zf,
			lf:         p.lf,
			mem:        p.mem.CloneCoW(),
			sig:        make(map[Signal]Sigaction, len(p.sig)),
			fds:        make(map[int]*fdesc, len(p.fds)),
			nextFD:     p.nextFD,
			exited:     p.exited,
			exitCode:   p.exitCode,
			killedBy:   p.killedBy,
			stdout:     append([]byte(nil), p.stdout...),
			stderr:     append([]byte(nil), p.stderr...),
			insts:      p.insts,
			blockStart: p.blockStart,
			modules:    append([]Module(nil), p.modules...),
		}
		for s, act := range p.sig {
			np.sig[s] = act
		}
		if p.sysFilter != nil {
			np.sysFilter = make(map[uint64]bool, len(p.sysFilter))
			for nr, ok := range p.sysFilter {
				np.sysFilter[nr] = ok
			}
		}
		for fd, d := range p.fds {
			nd, ok := fdMap[d]
			if !ok {
				nd = &fdesc{
					kind:  d.kind,
					stdNo: d.stdNo,
					lst:   cloneListener(d.lst),
					cn:    cloneConn(d.cn),
					sideA: d.sideA,
				}
				fdMap[d] = nd
			}
			np.fds[fd] = nd
		}
		c.procs = append(c.procs, np)
	}
	return c
}
