package kernel

// The differential-execution oracle for the translating engine: run
// the reference interpreter and the block-cache engine side by side on
// two clones of the same machine, drive them with identical host
// actions, and diff every piece of guest-visible state after every
// scheduler round. Any disagreement — a register, a tick count, a page
// byte, a byte of socket traffic — is a translation bug,
// caught at the round where it first appears rather than megaticks
// later when a workload assertion finally trips.

import (
	"bytes"
	"fmt"
)

// Divergence is one observed disagreement between the reference
// interpreter and the engine under test.
type Divergence struct {
	Round int    // scheduler round after which the diff was taken
	PID   int    // -1 for machine-level state
	Field string // what disagreed ("rip", "clock", "page bytes", ...)
	Ref   string // reference interpreter's value
	Tx    string // engine-under-test's value
}

func (d Divergence) String() string {
	who := "machine"
	if d.PID >= 0 {
		who = fmt.Sprintf("pid %d", d.PID)
	}
	return fmt.Sprintf("round %d %s %s: interpreter=%s engine=%s", d.Round, who, d.Field, d.Ref, d.Tx)
}

// maxDivergences bounds the stored reports; comparison short-circuits
// once the bound is reached (one divergence typically cascades).
const maxDivergences = 32

// Lockstep drives two clones of one machine — Ref on the reference
// interpreter, Tx on the engine under test — through identical
// schedules and host actions, diffing all guest-visible state after
// every round.
type Lockstep struct {
	Ref *Machine // reference interpreter (ModeInterpret)
	Tx  *Machine // engine under test (ModeTranslate or ModeLockstep)

	round int
	divs  []Divergence
}

// NewLockstep clones m twice: the reference clone runs the
// interpreter, the test clone runs mode (ModeTranslate, or
// ModeLockstep for the additional per-dispatch decode verification).
// The source machine is not touched. Host-side hooks are not cloned
// (see Machine.Clone); install any needed on both via Do.
func NewLockstep(m *Machine, mode ExecMode) *Lockstep {
	ref := m.Clone()
	ref.SetExecMode(ModeInterpret)
	tx := m.Clone()
	tx.SetExecMode(mode)
	return &Lockstep{Ref: ref, Tx: tx}
}

// Do applies the same host action to both machines — driving
// requests into a HostConn, injecting a fault, triggering a
// live-patch. Determinism is the caller's job: the action must make
// the same mutations on both (use only machine-derived state, no
// shared RNG advanced by one call).
func (l *Lockstep) Do(f func(*Machine)) {
	f(l.Ref)
	f(l.Tx)
}

// RunRound runs one scheduler round on both machines, then diffs all
// guest-visible state. Returns the instructions retired by each.
func (l *Lockstep) RunRound() (refN, txN uint64) {
	refN = l.Ref.RunRound()
	txN = l.Tx.RunRound()
	l.round++
	l.compare()
	return refN, txN
}

// Run executes up to rounds scheduler rounds, stopping early when
// both machines go idle (every process blocked or exited) or the
// divergence bound is hit. Returns the number of rounds executed.
func (l *Lockstep) Run(rounds int) int {
	for i := 0; i < rounds; i++ {
		refN, txN := l.RunRound()
		if refN == 0 && txN == 0 {
			return i + 1
		}
		if len(l.divs) >= maxDivergences {
			return i + 1
		}
	}
	return rounds
}

// Divergences returns every disagreement observed so far; nil (the
// state every test asserts) means the engines are indistinguishable.
func (l *Lockstep) Divergences() []Divergence {
	return append([]Divergence(nil), l.divs...)
}

func (l *Lockstep) report(pid int, field, ref, tx string) {
	if len(l.divs) >= maxDivergences {
		return
	}
	l.divs = append(l.divs, Divergence{Round: l.round, PID: pid, Field: field, Ref: ref, Tx: tx})
}

// compare diffs every piece of guest-visible state between the two
// machines: the virtual clock, the process table, per-process
// registers/RIP/flags/retired-instruction counts/exit state/stdio,
// address-space layout, populated page bytes, and the virtual
// network's buffers — plus the Tx machine's own lockstep
// decode-verification log when it runs in ModeLockstep.
func (l *Lockstep) compare() {
	a, b := l.Ref, l.Tx
	if a.clock != b.clock {
		l.report(-1, "clock", fmt.Sprint(a.clock), fmt.Sprint(b.clock))
	}
	if n := b.CacheDivergenceCount(); n != 0 {
		l.report(-1, "cache decode divergences", "0", fmt.Sprint(n))
	}

	for _, pa := range a.procs {
		i, ok := b.lookup(pa.pid)
		if !ok {
			l.report(pa.pid, "process table", "true", "false")
			continue
		}
		l.compareProc(pa.pid, pa, b.procs[i])
	}
	for _, pb := range b.procs {
		if _, ok := a.lookup(pb.pid); !ok {
			l.report(pb.pid, "process table", "false", "true")
		}
	}
	l.compareNet()
}

func (l *Lockstep) compareProc(pid int, pa, pb *Process) {
	if pa.regs != pb.regs {
		l.report(pid, "regs", fmt.Sprint(pa.regs), fmt.Sprint(pb.regs))
	}
	if pa.rip != pb.rip {
		l.report(pid, "rip", fmt.Sprintf("%#x", pa.rip), fmt.Sprintf("%#x", pb.rip))
	}
	if pa.zf != pb.zf || pa.lf != pb.lf {
		l.report(pid, "flags", fmt.Sprintf("zf=%v lf=%v", pa.zf, pa.lf), fmt.Sprintf("zf=%v lf=%v", pb.zf, pb.lf))
	}
	if pa.insts != pb.insts {
		l.report(pid, "retired insts", fmt.Sprint(pa.insts), fmt.Sprint(pb.insts))
	}
	if pa.exited != pb.exited || pa.exitCode != pb.exitCode || pa.killedBy != pb.killedBy {
		l.report(pid, "exit state",
			fmt.Sprintf("exited=%v code=%d sig=%d", pa.exited, pa.exitCode, pa.killedBy),
			fmt.Sprintf("exited=%v code=%d sig=%d", pb.exited, pb.exitCode, pb.killedBy))
	}
	if !bytes.Equal(pa.stdout, pb.stdout) {
		l.report(pid, "stdout", fmt.Sprintf("%d bytes %q", len(pa.stdout), trunc(pa.stdout)), fmt.Sprintf("%d bytes %q", len(pb.stdout), trunc(pb.stdout)))
	}
	if !bytes.Equal(pa.stderr, pb.stderr) {
		l.report(pid, "stderr", fmt.Sprintf("%d bytes %q", len(pa.stderr), trunc(pa.stderr)), fmt.Sprintf("%d bytes %q", len(pb.stderr), trunc(pb.stderr)))
	}
	l.compareMem(pid, pa.mem, pb.mem)
}

func (l *Lockstep) compareMem(pid int, ma, mb *Memory) {
	va, vb := ma.VMAs(), mb.VMAs()
	if fmt.Sprint(va) != fmt.Sprint(vb) {
		l.report(pid, "vmas", fmt.Sprint(va), fmt.Sprint(vb))
	}
	// Populated page SETS must match exactly: the engines fetch the
	// same windows on first execution, so even demand-population is
	// part of the equivalence claim.
	ppa, ppb := ma.PopulatedPages(), mb.PopulatedPages()
	if !equalU64(ppa, ppb) {
		l.report(pid, "populated pages", fmt.Sprint(ppa), fmt.Sprint(ppb))
		return
	}
	for _, pn := range ppa {
		if !bytes.Equal(ma.pages[pn], mb.pages[pn]) {
			l.report(pid, fmt.Sprintf("page %#x bytes", pn), "-", "differs")
			break
		}
	}
}

func (l *Lockstep) compareNet() {
	a, b := l.Ref.net, l.Tx.net
	ids := map[uint64]bool{}
	for id := range a.conns {
		ids[id] = true
	}
	for id := range b.conns {
		ids[id] = true
	}
	for id := range ids {
		ca, cb := a.conns[id], b.conns[id]
		if (ca == nil) != (cb == nil) {
			l.report(-1, fmt.Sprintf("conn %d", id), fmt.Sprint(ca != nil), fmt.Sprint(cb != nil))
			continue
		}
		if !bytes.Equal(ca.a2b, cb.a2b) || !bytes.Equal(ca.b2a, cb.b2a) ||
			ca.aClosed != cb.aClosed || ca.bClosed != cb.bClosed {
			l.report(-1, fmt.Sprintf("conn %d state", id),
				fmt.Sprintf("a2b=%d b2a=%d aC=%v bC=%v", len(ca.a2b), len(ca.b2a), ca.aClosed, ca.bClosed),
				fmt.Sprintf("a2b=%d b2a=%d aC=%v bC=%v", len(cb.a2b), len(cb.b2a), cb.aClosed, cb.bClosed))
		}
	}
}

func trunc(b []byte) []byte {
	if len(b) > 64 {
		return b[:64]
	}
	return b
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
