package criu

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/isa"
	"github.com/dynacut/dynacut/internal/kernel"
)

// DumpOpts controls which memory is checkpointed.
type DumpOpts struct {
	// ExecPages dumps private file-backed executable (and read-only)
	// pages in addition to anonymous memory. Vanilla CRIU leaves them
	// out because the page-fault handler reconstructs file-backed
	// memory from disk — which would silently revert DynaCut's code
	// patches on restore. This is the paper's criu/mem.c change.
	ExecPages bool
	// Tree also dumps all live descendants of the target (Nginx-style
	// master/worker applications).
	Tree bool
}

// Dump checkpoints a process (or its whole tree) into an ImageSet.
// The process is left running; callers that want the
// checkpoint-kill-rewrite-restore flow use Machine.Kill afterwards.
//
// All fault hooks run in a prepass before any process is serialized,
// so a failed Dump shares no page and the serialization that follows
// is infallible. Both run on the caller's goroutine.
func Dump(m *kernel.Machine, pid int, opts DumpOpts) (*ImageSet, error) {
	root, err := m.Process(pid)
	if err != nil {
		return nil, err
	}
	procs := []*kernel.Process{root}
	if opts.Tree {
		procs = append(procs, descendants(m, pid)...)
	}

	// Serial prepass: fault hooks fire in deterministic order
	// (proc, pagemap per process), before any page is shared.
	for _, p := range procs {
		if err := m.Fault(faultinject.SiteDumpProc, p.PID()); err != nil {
			return nil, fmt.Errorf("dump pid %d: %w", p.PID(), err)
		}
		if err := m.Fault(faultinject.SiteDumpPageMap, p.PID()); err != nil {
			return nil, fmt.Errorf("dump pid %d: %w", p.PID(), err)
		}
	}

	// Serialize each process in traversal order.
	set := &ImageSet{Procs: map[int]*ProcImage{}}
	parent := map[int]int{}
	for _, p := range procs {
		pi := dumpOne(p, opts)
		set.PIDs = append(set.PIDs, p.PID())
		set.Procs[p.PID()] = pi
		set.PagesDumped += len(pi.Pages)
		parent[p.PID()] = p.Parent()
	}
	sortPIDsParentFirst(set.PIDs, parent)
	if o := m.Observer(); o != nil {
		o.Add("criu.dumps", 1)
		o.Add("criu.pages.dumped", int64(set.PagesDumped))
	}
	return set, nil
}

func descendants(m *kernel.Machine, pid int) []*kernel.Process {
	var out []*kernel.Process
	for _, c := range m.Children(pid) {
		out = append(out, c)
		out = append(out, descendants(m, c.PID())...)
	}
	return out
}

// dumpEligible reports whether a populated page belongs in the image:
// anonymous always, file-backed only with ExecPages, stale pages
// outside any VMA never.
func dumpEligible(mem *kernel.Memory, pn uint64, opts DumpOpts) bool {
	v, ok := mem.VMAAt(pn * kernel.PageSize)
	if !ok {
		return false
	}
	return v.Anon || opts.ExecPages
}

// dumpOne serializes one process. It is infallible by design: every
// fault hook already ran in Dump's prepass.
func dumpOne(p *kernel.Process, opts DumpOpts) *ProcImage {
	pi := &ProcImage{}

	// core
	pi.Core = CoreImage{
		Name:   p.Name(),
		PID:    p.PID(),
		Parent: p.Parent(),
		RIP:    p.RIP(),
		Flags:  p.Flags(),
	}
	for i := 0; i < isa.NumRegisters; i++ {
		pi.Core.Regs[i] = p.Reg(isa.Register(i))
	}
	sigs := p.Sigactions()
	pi.Core.Sigs = make([]SigEntry, 0, len(sigs))
	for signo, act := range sigs {
		pi.Core.Sigs = append(pi.Core.Sigs, SigEntry{
			Signo: int(signo), Handler: act.Handler, Restorer: act.Restorer,
		})
	}
	slices.SortFunc(pi.Core.Sigs, func(a, b SigEntry) int { return cmp.Compare(a.Signo, b.Signo) })
	if filter := p.SyscallFilter(); filter != nil {
		pi.Core.HasFilter = true
		pi.Core.SysFilter = filter
	}

	// mm
	mem := p.Mem()
	vmas := mem.VMAs()
	pi.MM.VMAs = make([]VMAEntry, 0, len(vmas))
	for _, v := range vmas {
		pi.MM.VMAs = append(pi.MM.VMAs, VMAEntry{
			Start: v.Start, End: v.End, Perm: uint8(v.Perm),
			Name: v.Name, Backing: v.Backing, BackSection: v.BackSection,
			Anon: v.Anon,
		})
	}
	mods := p.Modules()
	pi.MM.Modules = make([]ModuleEntry, 0, len(mods))
	for _, mod := range mods {
		pi.MM.Modules = append(pi.MM.Modules, ModuleEntry{Name: mod.Name, Lo: mod.Lo, Hi: mod.Hi})
	}

	// pagemap + pages: the complete table of eligible pages. Each takes
	// the live page's slice, which memory marks copy-on-write, so no
	// page is copied here; a page the guest has not written since the
	// previous dump is still that dump's slice.
	populated := mem.PopulatedPages()
	pi.PageMap.PageNumbers = make([]uint64, 0, len(populated))
	pi.Pages = make([][]byte, 0, len(populated))
	for _, pn := range populated {
		if dumpEligible(mem, pn, opts) {
			pi.PageMap.PageNumbers = append(pi.PageMap.PageNumbers, pn)
			pi.Pages = append(pi.Pages, mem.SharePage(pn))
		}
	}

	// files (including TCP state for repair)
	fds := p.FDs()
	pi.Files.Files = make([]FileEntry, 0, len(fds))
	for _, fd := range fds {
		pi.Files.Files = append(pi.Files.Files, FileEntry{
			FD: fd.FD, Kind: uint8(fd.Kind), StdNo: fd.StdNo,
			Port: fd.Port, ConnID: fd.ConnID, SideA: fd.SideA,
		})
	}
	return pi
}
