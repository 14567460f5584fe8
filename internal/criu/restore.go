package criu

import (
	"fmt"
	"slices"

	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/isa"
	"github.com/dynacut/dynacut/internal/kernel"
)

// Restore materializes the image set into fresh processes on m and
// returns them in image order (parents first), plus the old→new PID
// mapping. Listener ports must be free (kill the original processes
// before restoring); established connections are re-attached by ID so
// live host clients continue transparently (TCP repair).
//
// File-backed pages absent from the image are re-read from the
// machine's disk, faithfully reproducing vanilla CRIU's page-fault
// reconstruction — and therefore reverting any code patches unless
// the dump used ExecPages.
//
// Every page is shared with the set copy-on-write
// (kernel.Memory.SetPage), so a restore copies no page and the set
// stays intact for a rollback or the next dump.
//
// Restore is atomic with respect to the machine's process table: if
// restoring any process fails, every process this call created is
// torn down (descriptors released, ports unbound) before the error is
// returned. It deliberately does not call (*ImageSet).Validate — that
// is transaction policy, applied by core.Customizer.Rewrite while the
// guest is still alive; Restore is the mechanism and will materialize
// whatever self-consistent-enough set it is given.
func Restore(m *kernel.Machine, set *ImageSet) ([]*kernel.Process, map[int]int, error) {
	pidMap := map[int]int{}
	var out []*kernel.Process
	boundHere := map[uint16]bool{} // listeners (re)bound by this restore
	undo := func(failed *kernel.Process, oldPID int, err error) ([]*kernel.Process, map[int]int, error) {
		if failed != nil {
			out = append(out, failed)
		}
		for i := len(out) - 1; i >= 0; i-- {
			m.Kill(out[i].PID()) // releases descriptors and bound ports
			m.Remove(out[i].PID())
		}
		return nil, nil, fmt.Errorf("restore pid %d: %w", oldPID, err)
	}
	for _, oldPID := range set.PIDs {
		if err := m.Fault(faultinject.SiteRestoreProc, oldPID); err != nil {
			return undo(nil, oldPID, err)
		}
		pi := set.Procs[oldPID]
		parent := pidMap[pi.Core.Parent] // 0 when the parent wasn't dumped
		p := m.NewRawProcess(pi.Core.Name, parent)
		if err := restoreOne(m, p, pi, boundHere); err != nil {
			return undo(p, oldPID, err)
		}
		pidMap[oldPID] = p.PID()
		out = append(out, p)
	}
	if o := m.Observer(); o != nil {
		o.Add("criu.restores", 1)
		o.Add("criu.procs.restored", int64(len(out)))
	}
	return out, pidMap, nil
}

func restoreOne(m *kernel.Machine, p *kernel.Process, pi *ProcImage, boundHere map[uint16]bool) error {
	// VMAs: the table is built once and handed to the address space.
	if err := m.Fault(faultinject.SiteRestoreVMA, p.PID()); err != nil {
		return err
	}
	vmas := make([]kernel.VMA, len(pi.MM.VMAs))
	for i, v := range pi.MM.VMAs {
		vmas[i] = kernel.VMA{
			Start: v.Start, End: v.End, Perm: delf.Perm(v.Perm),
			Name: v.Name, Backing: v.Backing, BackSection: v.BackSection,
			Anon: v.Anon,
		}
	}
	if err := p.Mem().Map(vmas...); err != nil {
		return err
	}

	// File-backed contents from disk (vanilla CRIU page-fault
	// reconstruction), only for pages the image does not carry. A VMA
	// may be a fragment of its section (the rewriter unmaps pages), so
	// only the slice the VMA still covers is written.
	for _, v := range pi.MM.VMAs {
		if v.Anon || v.Backing == "" || v.BackSection == "" {
			continue
		}
		file, err := m.Binary(v.Backing)
		if err != nil {
			return fmt.Errorf("rematerialize %s: %w", v.Name, err)
		}
		sec, err := file.Section(v.BackSection)
		if err != nil {
			return fmt.Errorf("rematerialize %s: %w", v.Name, err)
		}
		secStart, ok := sectionStart(pi, v.Backing, file, sec.Addr)
		if !ok || v.Start < secStart {
			continue
		}
		for a := v.Start; a < v.End && a-secStart < uint64(len(sec.Data)); a += kernel.PageSize {
			if _, dumped := slices.BinarySearch(pi.PageMap.PageNumbers, a/kernel.PageSize); dumped {
				continue
			}
			off := a - secStart
			if err := p.Mem().Write(a, sec.Data[off:min(off+kernel.PageSize, uint64(len(sec.Data)))]); err != nil {
				return fmt.Errorf("rematerialize %s: %w", v.Name, err)
			}
		}
	}
	if err := m.Fault(faultinject.SiteRestorePages, p.PID()); err != nil {
		return err
	}
	for i, pn := range pi.PageMap.PageNumbers {
		if err := p.Mem().SetPage(pn, pi.Pages[i]); err != nil {
			return err
		}
	}

	// Registers, flags, signal dispositions.
	for i := 0; i < isa.NumRegisters; i++ {
		p.SetReg(isa.Register(i), pi.Core.Regs[i])
	}
	p.SetFlags(pi.Core.Flags)
	p.SetRIP(pi.Core.RIP)
	for _, sg := range pi.Core.Sigs {
		p.SetSigaction(kernel.Signal(sg.Signo), kernel.Sigaction{
			Handler: sg.Handler, Restorer: sg.Restorer,
		})
	}
	if pi.Core.HasFilter {
		filter := pi.Core.SysFilter
		if filter == nil {
			filter = []uint64{} // deny-all
		}
		p.SetSyscallFilter(filter)
	}

	// Modules.
	for _, mod := range pi.MM.Modules {
		p.AddModule(kernel.Module{Name: mod.Name, Lo: mod.Lo, Hi: mod.Hi})
	}

	// Descriptors.
	if err := m.Fault(faultinject.SiteRestoreFiles, p.PID()); err != nil {
		return err
	}
	for _, fe := range pi.Files.Files {
		switch kernel.FDKind(fe.Kind) {
		case kernel.FDStdio:
			m.AttachStdio(p, fe.FD, fe.StdNo)
		case kernel.FDListener:
			if fe.Port == 0 {
				continue // socket dumped before bind: nothing to re-attach
			}
			if boundHere[fe.Port] {
				// Shared across fork within this restored tree.
				if err := m.ShareListener(p, fe.FD, fe.Port); err != nil {
					return fmt.Errorf("share port %d: %w", fe.Port, err)
				}
				continue
			}
			if err := m.AttachListener(p, fe.FD, fe.Port); err != nil {
				return fmt.Errorf("rebind port %d: %w", fe.Port, err)
			}
			boundHere[fe.Port] = true
		case kernel.FDConn:
			m.AttachConn(p, fe.FD, fe.ConnID, fe.Port, fe.SideA)
		default:
			return fmt.Errorf("%w: fd %d has unknown kind %d", ErrBadImage, fe.FD, fe.Kind)
		}
	}
	return nil
}

// sectionStart computes the runtime start address of a section of the
// named module within the dumped process: the module's recorded load
// range pins its base.
func sectionStart(pi *ProcImage, moduleName string, file *delf.File, secAddr uint64) (uint64, bool) {
	fileLo, _ := file.ImageSpan()
	for _, mod := range pi.MM.Modules {
		if mod.Name == moduleName {
			return mod.Lo - fileLo + secAddr, true
		}
	}
	return 0, false
}
