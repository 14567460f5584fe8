package core

import (
	"github.com/dynacut/dynacut/internal/kernel"
)

// AutoNudge implements the paper's §5 proposal for a fully automatic
// DynaCut: instead of requiring the operator to nudge the tracer when
// the server has finished booting, the end of the initialization
// phase is inferred by monitoring system calls. For server programs
// the first blocking accept is a reliable transition point — it is
// the moment the program starts consuming external requests (the
// same structural boundary Ghavamnia et al. identify manually via
// ngx_worker_process_cycle / server_main_loop).
//
// Arm it before running the guest; when the trigger syscall is first
// observed, onInit runs once (typically snapshotting the coverage
// collector) and the hook uninstalls itself.
type AutoNudge struct {
	machine *kernel.Machine
	trigger uint64
	fired   bool
	onInit  func(pid int)
}

// NewAutoNudge arms automatic init-end detection on m. trigger is
// the syscall number ending initialization (DefaultInitEndSyscall for
// servers); onInit is invoked exactly once, with the PID that issued
// the call.
func NewAutoNudge(m *kernel.Machine, trigger uint64, onInit func(pid int)) *AutoNudge {
	a := &AutoNudge{machine: m, trigger: trigger, onInit: onInit}
	m.SetSyscallHook(a.hook)
	return a
}

// DefaultInitEndSyscall is the accept(2) analogue: the canonical
// init/serving boundary for server programs.
const DefaultInitEndSyscall = kernel.SysAccept

func (a *AutoNudge) hook(pid int, nr uint64) {
	if a.fired || nr != a.trigger {
		return
	}
	a.fired = true
	a.machine.SetSyscallHook(nil)
	if a.onInit != nil {
		a.onInit(pid)
	}
}
