// Package kernel implements the simulated operating system and CPU
// that DynaCut customizes: paged process address spaces with
// permissioned VMAs, an interpreter for the virtual ISA (internal/isa)
// with precise INT3 → SIGTRAP semantics and user signal frames,
// fork-capable processes, a round-robin scheduler with a deterministic
// virtual clock, and a virtual TCP stack whose connections survive
// checkpoint/restore (the TCP_REPAIR analogue).
package kernel

import (
	"errors"
	"fmt"
	"slices"

	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/obs"
)

// Tracer observes basic-block execution; internal/trace implements it
// to produce drcov-style coverage logs.
type Tracer interface {
	// OnBlock is called each time a basic block completes execution.
	OnBlock(pid int, start, size uint64)
}

// NudgeFunc receives the guest's "initialization finished" nudge
// (syscall SysNudge), the DynamoRIO-nudge analogue used to split
// init-phase from serving-phase coverage.
type NudgeFunc func(pid int, arg uint64)

// SyscallHook observes every system call a guest issues (by number,
// before execution). The paper's §5 proposes monitoring specific
// system calls to detect the end of the initialization phase
// automatically; internal/core's AutoNudge builds on this hook.
type SyscallHook func(pid int, nr uint64)

// FaultHook is consulted at named hook sites inside the
// checkpoint/rewrite/restore machinery (criu, crit, core). A non-nil
// return injects a failure at that site; internal/faultinject
// implements a deterministic, seeded injector.
type FaultHook interface {
	Fault(site string, detail int) error
}

// FaultReporter is an optional FaultHook extension: hooks that
// implement it are handed a callback to invoke for every fault they
// actually inject, with the per-plan hit number Machine.Fault cannot
// see. The machine wires the callback to the installed observer, so
// every injected fault becomes a trace event.
type FaultReporter interface {
	// SetReporter installs the callback (nil disables reporting).
	SetReporter(func(site string, hit int, injected bool))
}

// Machine is the simulated computer: processes, network, virtual
// clock, and the "disk" of loaded binaries.
type Machine struct {
	// procs is the process table, sorted by PID. PIDs are allocated in
	// increasing order, so a new process is appended.
	procs     []*Process
	nextPID   int
	clock     uint64
	net       *network
	tracer    Tracer
	nudge     NudgeFunc
	syshook   SyscallHook
	faultHook FaultHook
	obs       *obs.Observer
	disk      map[string]*diskFile // DELF binaries by name

	// Execution engine selection (see bcache.go). ModeInterpret is the
	// reference interpreter; ModeTranslate runs through the basic-block
	// translation cache; ModeLockstep runs the cache with per-dispatch
	// re-decode verification, logging any divergence below — or, when
	// divPanic is set (the lockstep gate build, until SetExecMode),
	// panicking on it.
	execMode      ExecMode
	divPanic      bool
	cacheDivs     []CacheDivergence
	cacheDivTotal uint64
	// reapedCache keeps the block-cache counters of removed processes
	// so BlockCacheStats stays cumulative.
	reapedCache BlockCacheStats

	// Tick-progress watchdog: fn fires between scheduler rounds once
	// the virtual clock has advanced by at least wdEvery ticks since
	// the last firing. The callback may run the machine itself
	// (probes, rewrites); wdBusy suppresses nested firings so a
	// watchdog-driven Run cannot recurse into the watchdog.
	wdEvery uint64
	wdLast  uint64
	wdFn    func(clock uint64)
	wdBusy  bool
}

// NewMachine creates an empty machine running the translating engine
// (ModeLockstep with divergences fatal in the lockstep gate build; see
// LockstepGate).
func NewMachine() *Machine {
	return &Machine{
		net:      newNetwork(),
		disk:     map[string]*diskFile{},
		execMode: defaultExecMode,
		divPanic: LockstepGate,
	}
}

// diskFile is one binary on the machine's disk: its serialized bytes
// and the result of parsing them, computed once by WriteFile. Both are
// immutable, so clones share the same *diskFile.
type diskFile struct {
	blob []byte
	bin  *delf.File
	err  error // the parse error of a blob that is not DELF
}

// Machine-level errors.
var (
	ErrNoProcess = errors.New("kernel: no such process")
	ErrNoFile    = errors.New("kernel: no such file on disk")
)

// SetTracer installs (or removes, with nil) the coverage tracer.
func (m *Machine) SetTracer(t Tracer) { m.tracer = t }

// SetExecMode selects the execution engine for subsequent runs. Safe
// to switch between scheduler rounds; cached blocks persist across
// switches (they are revalidated on every dispatch anyway). An explicit
// choice also opts the machine out of the lockstep gate's panic.
func (m *Machine) SetExecMode(mode ExecMode) {
	m.execMode = mode
	m.divPanic = false
}

// ExecMode returns the currently selected execution engine.
func (m *Machine) ExecMode() ExecMode { return m.execMode }

// SetNudgeFunc installs the nudge callback.
func (m *Machine) SetNudgeFunc(f NudgeFunc) { m.nudge = f }

// SetSyscallHook installs (or removes, with nil) the syscall observer.
func (m *Machine) SetSyscallHook(f SyscallHook) { m.syshook = f }

// SetFaultHook installs (or removes, with nil) the fault injector.
func (m *Machine) SetFaultHook(h FaultHook) {
	m.faultHook = h
	m.wireFaultReporter()
}

// SetObserver installs (or removes, with nil) the observability sink.
// The observer's virtual-clock source is wired to this machine's tick
// counter, so its events carry deterministic timestamps; if the fault
// hook reports injections (FaultReporter), those are wired through as
// fault events too. With no observer attached, every emit site is a
// nil check — zero overhead.
func (m *Machine) SetObserver(o *obs.Observer) {
	m.obs = o
	if o != nil {
		o.SetClock(func() uint64 { return m.clock })
	}
	m.wireFaultReporter()
}

// Observer returns the installed observability sink (nil when
// unobserved); criu and core emit their pipeline metrics through it.
func (m *Machine) Observer() *obs.Observer { return m.obs }

// wireFaultReporter connects a reporting fault hook to the observer so
// each injected fault becomes an event.
func (m *Machine) wireFaultReporter() {
	fr, ok := m.faultHook.(FaultReporter)
	if !ok {
		return
	}
	o := m.obs
	if o == nil {
		fr.SetReporter(nil)
		return
	}
	fr.SetReporter(func(site string, hit int, injected bool) {
		if injected {
			o.Fault(site, hit)
		}
	})
}

// SetTickWatchdog installs (or, with fn == nil, removes) the
// tick-progress watchdog: fn fires between scheduler rounds whenever
// the virtual clock has advanced every or more ticks since it last
// fired. It is the hook a closed-loop controller (internal/supervise)
// attaches to so its decisions are driven purely by virtual time —
// deterministic across reruns. The callback runs synchronously on the
// Run path and may itself run the machine; nested firings are
// suppressed while a callback is in flight.
func (m *Machine) SetTickWatchdog(every uint64, fn func(clock uint64)) {
	if every == 0 {
		every = 1
	}
	m.wdEvery = every
	m.wdLast = m.clock
	m.wdFn = fn
}

// pokeWatchdog fires the watchdog if due. Called between scheduler
// rounds (never mid-instruction), so the process table is stable.
func (m *Machine) pokeWatchdog() {
	if m.wdFn == nil || m.wdBusy || m.clock-m.wdLast < m.wdEvery {
		return
	}
	m.wdBusy = true
	m.wdLast = m.clock
	m.wdFn(m.clock)
	m.wdBusy = false
}

// Fault consults the installed fault hook at a named site; without a
// hook it always succeeds.
func (m *Machine) Fault(site string, detail int) error {
	if m.faultHook == nil {
		return nil
	}
	err := m.faultHook.Fault(site, detail)
	if err != nil && m.obs != nil {
		// Reporting hooks already emitted the event themselves.
		if _, reports := m.faultHook.(FaultReporter); !reports {
			m.obs.Fault(site, 0)
		}
	}
	return err
}

// Clock returns the virtual time in ticks (1 tick = 1 retired
// instruction across all processes).
func (m *Machine) Clock() uint64 { return m.clock }

// AdvanceClock adds ticks to the virtual clock without executing
// guest code. Checkpoint/restore uses it to model the service
// interruption window (Figure 8).
func (m *Machine) AdvanceClock(ticks uint64) { m.clock += ticks }

// WriteFile stores a copy of a serialized binary on the machine's disk
// and parses it once; a blob that does not parse is stored anyway and
// its parse error is reported by Binary.
func (m *Machine) WriteFile(name string, data []byte) {
	blob := append([]byte(nil), data...)
	bin, err := delf.Unmarshal(blob)
	m.disk[name] = &diskFile{blob: blob, bin: bin, err: err}
}

// ReadFile returns a copy of a binary's bytes from disk; the stored
// blob is shared with clones and with its parsed form, so it is never
// handed out.
func (m *Machine) ReadFile(name string) ([]byte, error) {
	f, ok := m.disk[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoFile, name)
	}
	return append([]byte(nil), f.blob...), nil
}

// Binary returns the parsed binary stored under name, or the error
// parsing its blob produced. The *delf.File is shared by the machine
// and its clones and must not be modified.
func (m *Machine) Binary(name string) (*delf.File, error) {
	f, ok := m.disk[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoFile, name)
	}
	return f.bin, f.err
}

// lookup returns the table index of pid, or where it would go.
func (m *Machine) lookup(pid int) (int, bool) {
	return slices.BinarySearchFunc(m.procs, pid, func(p *Process, pid int) int { return p.pid - pid })
}

// addProcess enters p, which holds the newest PID, into the table.
func (m *Machine) addProcess(p *Process) { m.procs = append(m.procs, p) }

// Process returns the process with the given PID.
func (m *Machine) Process(pid int) (*Process, error) {
	i, ok := m.lookup(pid)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoProcess, pid)
	}
	return m.procs[i], nil
}

// Processes returns all live (non-exited) processes sorted by PID.
func (m *Machine) Processes() []*Process {
	var out []*Process
	for _, p := range m.procs {
		if !p.exited {
			out = append(out, p)
		}
	}
	return out
}

// Children returns live children of pid sorted by PID.
func (m *Machine) Children(pid int) []*Process {
	var out []*Process
	for _, p := range m.procs {
		if p.parent == pid && !p.exited {
			out = append(out, p)
		}
	}
	return out
}

// Kill terminates a process immediately (checkpoint-then-kill path).
func (m *Machine) Kill(pid int) error {
	p, err := m.Process(pid)
	if err != nil {
		return err
	}
	m.terminate(p, 137, 0)
	return nil
}

// Remove deletes an exited process table entry.
func (m *Machine) Remove(pid int) {
	if i, ok := m.lookup(pid); ok {
		m.reapedCache.Add(m.procs[i].mem.BlockCacheStats())
		m.procs = slices.Delete(m.procs, i, i+1)
	}
}

// NewRawProcess creates an empty process shell (restore path). The
// caller populates memory, registers, sigactions and descriptors.
func (m *Machine) NewRawProcess(name string, parent int) *Process {
	m.nextPID++
	p := newProcess(m.nextPID, parent, name)
	m.addProcess(p)
	return p
}

// AttachListener binds a restored listener descriptor to its port.
func (m *Machine) AttachListener(p *Process, fd int, port uint16) error {
	l, err := m.net.bind(port)
	if err != nil {
		return err
	}
	p.fds[fd] = &fdesc{kind: FDListener, lst: l}
	if fd >= p.nextFD {
		p.nextFD = fd + 1
	}
	return nil
}

// ShareListener attaches fd to an already-bound listener (restoring
// a process tree whose members inherited one listener across fork).
func (m *Machine) ShareListener(p *Process, fd int, port uint16) error {
	l, ok := m.net.listeners[port]
	if !ok || l.closed {
		return fmt.Errorf("%w: %d", ErrNotListening, port)
	}
	p.fds[fd] = &fdesc{kind: FDListener, lst: l}
	if fd >= p.nextFD {
		p.nextFD = fd + 1
	}
	return nil
}

// AttachConn re-attaches a restored connection descriptor. If a live
// connection with the given ID still exists in the machine (the
// normal same-host rewrite flow), it is reused so host clients keep
// their endpoint — the TCP_REPAIR behaviour. Otherwise a fresh,
// already-closed-on-the-far-side connection is materialized.
func (m *Machine) AttachConn(p *Process, fd int, connID uint64, port uint16, sideA bool) {
	c, ok := m.net.conns[connID]
	if !ok {
		c = &conn{id: connID, port: port, aClosed: true}
		m.net.conns[connID] = c
	}
	p.fds[fd] = &fdesc{kind: FDConn, cn: c, sideA: sideA}
	if fd >= p.nextFD {
		p.nextFD = fd + 1
	}
}

// AttachStdio restores a stdio descriptor.
func (m *Machine) AttachStdio(p *Process, fd, stdNo int) {
	p.fds[fd] = &fdesc{kind: FDStdio, stdNo: stdNo}
	if fd >= p.nextFD {
		p.nextFD = fd + 1
	}
}

// terminate marks a process dead and releases its descriptors.
func (m *Machine) terminate(p *Process, code int, sig Signal) {
	if p.exited {
		return
	}
	p.exited = true
	p.exitCode = code
	p.killedBy = sig
	for _, d := range p.fds {
		m.closeFD(p, d)
	}
}

// closeFD releases one descriptor. Descriptors are shared across
// fork (dup semantics), so the underlying listener/connection is only
// torn down once no other live process still references it. Callers
// must remove the descriptor from p's table (or mark p exited)
// before calling.
func (m *Machine) closeFD(p *Process, d *fdesc) {
	switch d.kind {
	case FDListener:
		if d.lst != nil && !m.referenced(d) {
			m.net.closeListener(d.lst)
		}
	case FDConn:
		if m.referenced(d) {
			return
		}
		if d.sideA {
			d.cn.aClosed = true
		} else {
			d.cn.bClosed = true
		}
	}
}

// referenced reports whether any live process still holds a
// descriptor for the same underlying object (same listener, or same
// connection side).
func (m *Machine) referenced(d *fdesc) bool {
	for _, q := range m.procs {
		if q.exited {
			continue
		}
		for _, qd := range q.fds {
			if qd == d || qd.kind != d.kind {
				continue
			}
			switch d.kind {
			case FDListener:
				if qd.lst != nil && qd.lst == d.lst {
					return true
				}
			case FDConn:
				if qd.cn == d.cn && qd.sideA == d.sideA {
					return true
				}
			}
		}
	}
	return false
}

// Run executes up to maxSteps instructions across all runnable
// processes (round-robin, 64-instruction slices) and returns the
// number actually retired. It returns early when every live process
// is blocked or exited.
func (m *Machine) Run(maxSteps uint64) uint64 {
	var executed uint64
	for executed < maxSteps {
		n, ran := m.runRound(maxSteps - executed)
		if !ran {
			break
		}
		executed += n
		m.pokeWatchdog()
		if n == 0 {
			break
		}
	}
	if m.obs != nil && executed > 0 {
		m.obs.Add("kernel.ticks", int64(executed))
	}
	return executed
}

// runRound executes exactly one scheduler round: every live process,
// in PID order, gets one time slice of up to 64 instructions (bounded
// by budget across the round). It returns how many instructions
// retired and whether any live process existed to schedule at all.
// The watchdog is NOT poked here — callers do that between rounds.
//
// The round walks the table in place. A slice may change the table
// under it — fork, wait, or a nudge or syscall callback that re-enters
// Run and restores or reaps processes — so each step resumes after the
// PID it just ran, and a process created mid-round (its PID is above
// the round's bound) waits for the next round.
func (m *Machine) runRound(budget uint64) (executed uint64, ran bool) {
	bound := m.nextPID
	for i := 0; i < len(m.procs) && m.procs[i].pid <= bound; {
		p := m.procs[i]
		if !p.exited {
			ran = true
			executed += m.runSlice(p, minU64(64, budget-executed))
		}
		i, _ = m.lookup(p.pid + 1)
	}
	return executed, ran
}

// runSlice runs one time slice of up to limit instructions of p and
// returns how many it charged to the clock.
func (m *Machine) runSlice(p *Process, limit uint64) uint64 {
	if m.execMode != ModeInterpret {
		// Translating engine: the slice runs through the block cache.
		// It charges m.clock internally (per instruction, so mid-slice
		// clock reads observe the same values the interpreter would
		// produce) and returns the charge.
		return m.runSliceTranslated(p, limit)
	}
	var n uint64
	for n < limit && !p.exited {
		if !m.step(p) {
			break // would block; move to next process
		}
		n++
		m.clock++
	}
	return n
}

// RunRound executes one scheduler round (each live process gets at
// most one 64-instruction slice) and returns the instructions retired.
// Between rounds the process table is stable and no guest is
// mid-instruction — the quiescence boundary the live-patch fast path
// steps the machine by while it waits for every RIP and saved return
// address to leave the affected blocks. The tick watchdog fires after
// the round, exactly as it does between Run's internal rounds, so a
// supervisor keeps observing virtual-time progress. A zero return with
// live processes means every one of them is blocked: more rounds
// cannot change the guest's state.
func (m *Machine) RunRound() uint64 {
	n, ran := m.runRound(^uint64(0))
	if !ran {
		return 0
	}
	m.pokeWatchdog()
	if m.obs != nil && n > 0 {
		m.obs.Add("kernel.ticks", int64(n))
	}
	return n
}

// RunUntil runs until pred returns true or maxSteps instructions have
// retired, returning whether pred was satisfied.
func (m *Machine) RunUntil(pred func() bool, maxSteps uint64) bool {
	var executed uint64
	for executed < maxSteps {
		if pred() {
			return true
		}
		n := m.Run(minU64(1024, maxSteps-executed))
		executed += n
		if n == 0 {
			return pred()
		}
	}
	return pred()
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
