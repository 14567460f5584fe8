package core

import (
	"github.com/dynacut/dynacut/internal/crit"
	"github.com/dynacut/dynacut/internal/kernel"
)

// Temporal system-call specialization (§5, and the Ghavamnia et al.
// comparison in §6): after initialization a server no longer needs
// the boot-time system calls (socket, bind, fork, ...), so the
// process rewriter installs a seccomp-style allow list alongside the
// code customization. Unlike the code-removal policies, the filter
// acts even on code DynaCut could not identify — any reintroduced
// path to a denied syscall is fatal.

// ServingSyscalls is the post-initialization allow list for server
// guests: request handling only, no process creation, no new sockets.
var ServingSyscalls = []uint64{
	kernel.SysExit,
	kernel.SysWrite,
	kernel.SysRead,
	kernel.SysAccept,
	kernel.SysClose,
	kernel.SysGetPID,
	kernel.SysSigaction,
	kernel.SysSigreturn,
	kernel.SysClock,
	kernel.SysYield,
	kernel.SysNudge,
}

// RestrictSyscalls installs the allow list on every process of the
// target through one rewrite cycle. nil removes the filter (the
// dynamic re-enable direction the paper's §5 highlights).
func (c *Customizer) RestrictSyscalls(allowed []uint64) (Stats, error) {
	return c.Rewrite(func(ed *crit.Editor, pids []int) error {
		for _, pid := range pids {
			if err := ed.SetSyscallFilter(pid, allowed); err != nil {
				return err
			}
		}
		return nil
	})
}
