package criu

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/kernel"
)

// FileStore provides the parsed "on-disk" binaries referenced by the
// images; *kernel.Machine implements it. Validate uses it to check that
// every backing file a restore would re-read actually exists and parses.
type FileStore interface {
	Binary(name string) (*delf.File, error)
}

// Validate cross-checks the internal consistency of the image set
// before any live process is touched: it is the transaction guard
// that lets Customizer.Rewrite refuse a bad edit while the guest is
// still running. store may be nil to skip the disk checks (e.g. when
// validating a blob shipped without its binaries).
//
// Checked invariants:
//   - every PID has core/mm/pagemap/files images, exactly once;
//   - VMAs are page-aligned, well-formed (Start < End, perms within
//     R|W|X) and non-overlapping;
//   - the page table is sound (one PageSize page per pagemap entry,
//     page numbers strictly ascending) and every dumped page lies
//     inside a VMA;
//   - the saved RIP is mapped executable, and its page is either in
//     the image or re-materializable from a backing file;
//   - signal handlers point into executable memory;
//   - descriptors have known kinds and unique FD numbers;
//   - with a store: every backing file restore would read exists,
//     parses as DELF, and contains the referenced section.
//
// Violations are reported wrapping ErrInconsistentImage.
func (s *ImageSet) Validate(store FileStore) error {
	if len(s.PIDs) == 0 {
		return fmt.Errorf("%w: empty image set", ErrInconsistentImage)
	}
	if len(s.PIDs) != len(s.Procs) {
		return fmt.Errorf("%w: %d pids but %d proc images", ErrInconsistentImage, len(s.PIDs), len(s.Procs))
	}
	seen := make(map[int]int, len(s.PIDs)) // pid -> index in restore order
	for i, pid := range s.PIDs {
		if _, dup := seen[pid]; dup {
			return fmt.Errorf("%w: pid %d listed twice", ErrInconsistentImage, pid)
		}
		seen[pid] = i
		if _, ok := s.Procs[pid]; !ok {
			return fmt.Errorf("%w: pid %d has no images", ErrInconsistentImage, pid)
		}
	}
	for i, pid := range s.PIDs {
		pi := s.Procs[pid]
		if err := validateProc(pid, pi, store); err != nil {
			return err
		}
		// Parents must restore before children, or the restored tree
		// loses its ancestry (pidMap lookups would miss).
		if j, ok := seen[pi.Core.Parent]; ok && j > i {
			return fmt.Errorf("%w: pid %d restores before its parent %d",
				ErrInconsistentImage, pid, pi.Core.Parent)
		}
	}
	return nil
}

func validateProc(pid int, pi *ProcImage, store FileStore) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: pid %d: %s", ErrInconsistentImage, pid, fmt.Sprintf(format, args...))
	}
	if pi.Core.PID != pid {
		return fail("core image belongs to pid %d", pi.Core.PID)
	}
	if pi.Core.Name == "" {
		return fail("core image has no process name")
	}

	// VMA table: well-formed, aligned, non-overlapping.
	vmas := append([]VMAEntry(nil), pi.MM.VMAs...)
	slices.SortFunc(vmas, func(a, b VMAEntry) int { return cmp.Compare(a.Start, b.Start) })
	for i, v := range vmas {
		if v.End <= v.Start {
			return fail("VMA %s has bounds %#x-%#x", v.Name, v.Start, v.End)
		}
		if v.Start%kernel.PageSize != 0 || v.End%kernel.PageSize != 0 {
			return fail("VMA %s is not page aligned (%#x-%#x)", v.Name, v.Start, v.End)
		}
		if perm := delf.Perm(v.Perm); perm&^(delf.PermR|delf.PermW|delf.PermX) != 0 {
			return fail("VMA %s has malformed permissions %#x", v.Name, v.Perm)
		}
		if i > 0 && vmas[i-1].End > v.Start {
			return fail("VMA %s overlaps %s", v.Name, vmas[i-1].Name)
		}
	}

	// Page table: sound, and every dumped page inside a VMA. Both the
	// page numbers and the VMAs are sorted, so one merge walk checks it.
	if msg := pi.tableError(); msg != "" {
		return fail("%s", msg)
	}
	vi := 0
	for _, pn := range pi.PageMap.PageNumbers {
		addr := pn * kernel.PageSize
		for vi < len(vmas) && vmas[vi].End <= addr {
			vi++
		}
		if vi == len(vmas) || addr < vmas[vi].Start {
			return fail("dumped page %d lies outside every VMA", pn)
		}
	}

	// The saved instruction pointer must land on executable, restorable
	// memory — otherwise the restored process dies on its first fetch.
	if !pi.Core.ExitedOK {
		v, ok := vmaAt(vmas, pi.Core.RIP)
		if !ok {
			return fail("RIP %#x is not mapped", pi.Core.RIP)
		}
		if delf.Perm(v.Perm)&delf.PermX == 0 {
			return fail("RIP %#x lies in non-executable VMA %s", pi.Core.RIP, v.Name)
		}
		_, ripPresent := slices.BinarySearch(pi.PageMap.PageNumbers, pi.Core.RIP/kernel.PageSize)
		if !ripPresent && (v.Anon || v.Backing == "" || v.BackSection == "") {
			return fail("RIP %#x page is neither dumped nor file-backed", pi.Core.RIP)
		}
	}

	// Signal handlers must point into executable memory.
	for _, sg := range pi.Core.Sigs {
		if sg.Handler == 0 {
			continue
		}
		v, ok := vmaAt(vmas, sg.Handler)
		if !ok || delf.Perm(v.Perm)&delf.PermX == 0 {
			return fail("signal %d handler %#x is not mapped executable", sg.Signo, sg.Handler)
		}
	}

	// Descriptors: known kinds, unique FD numbers.
	fdSeen := make(map[int]bool, len(pi.Files.Files))
	for _, fe := range pi.Files.Files {
		if fe.FD < 0 {
			return fail("negative fd %d", fe.FD)
		}
		if fdSeen[fe.FD] {
			return fail("fd %d dumped twice", fe.FD)
		}
		fdSeen[fe.FD] = true
		switch kernel.FDKind(fe.Kind) {
		case kernel.FDStdio, kernel.FDListener, kernel.FDConn:
		default:
			return fail("fd %d has unknown kind %d", fe.FD, fe.Kind)
		}
	}

	// Disk checks: everything a restore would re-read must exist.
	if store != nil {
		for _, v := range pi.MM.VMAs {
			if v.Anon || v.Backing == "" || v.BackSection == "" {
				continue
			}
			file, err := store.Binary(v.Backing)
			if errors.Is(err, kernel.ErrNoFile) {
				return fail("VMA %s: backing file: %v", v.Name, err)
			}
			if err != nil {
				return fail("VMA %s: backing file %s: %v", v.Name, v.Backing, err)
			}
			if _, err := file.Section(v.BackSection); err != nil {
				return fail("VMA %s: backing section: %v", v.Name, err)
			}
		}
	}
	return nil
}

// vmaAt finds the (sorted or unsorted) VMA entry containing addr.
func vmaAt(vmas []VMAEntry, addr uint64) (VMAEntry, bool) {
	for _, v := range vmas {
		if addr >= v.Start && addr < v.End {
			return v, true
		}
	}
	return VMAEntry{}, false
}
