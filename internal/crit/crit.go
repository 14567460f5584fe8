// Package crit implements the image-rewriting layer of DynaCut: the
// analogue of the paper's extended CRIT (CRiu Image Tool). It edits
// frozen checkpoint images — never a live process — providing
// byte-level memory updates (INT3 placement, block wiping, restore),
// VMA growth/unmap, position-independent shared-library injection
// with GOT/data relocation against the in-image libc, and signal
// handler (sigaction) updates in the core image. It also decodes
// images to JSON and back, like `crit decode/encode`.
package crit

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"github.com/dynacut/dynacut/internal/criu"
	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/delf/link"
	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/kernel"
)

// FileStore provides the parsed "on-disk" binaries referenced by the
// images; *kernel.Machine implements it.
type FileStore interface {
	Binary(name string) (*delf.File, error)
}

// Editor errors.
var (
	ErrNotMapped = errors.New("crit: address not mapped in image")
	ErrNoModule  = errors.New("crit: module not found in image")
	ErrAlignment = errors.New("crit: range not page aligned")
)

// Editor rewrites one ImageSet in place. Page slices are shared and
// immutable, so the editor copies a page the first time it writes it
// and patches that copy in place after. Finish editing before the set
// is cloned, restored or deposited.
type Editor struct {
	set   *criu.ImageSet
	store FileStore
	owned map[*byte]bool // first bytes of the pages this editor made
}

// NewEditor wraps an image set for rewriting. store may be nil if no
// library injection or symbol resolution is needed.
func NewEditor(set *criu.ImageSet, store FileStore) *Editor {
	return &Editor{set: set, store: store, owned: map[*byte]bool{}}
}

// Set returns the underlying image set.
func (e *Editor) Set() *criu.ImageSet { return e.set }

// faulter matches kernel.Machine's fault-injection hook; the editor
// consults it through its FileStore so image edits are chaos-testable
// without crit depending on the kernel's hook registry.
type faulter interface {
	Fault(site string, detail int) error
}

func (e *Editor) fault(site string, pid int) error {
	if f, ok := e.store.(faulter); ok {
		return f.Fault(site, pid)
	}
	return nil
}

// Fault consults the editor's fault hook (the machine backing its
// FileStore) at a named site, for callers layering their own
// chaos-testable steps — core's handler injection — on top of the
// editor's primitives. Without a hook it always succeeds.
func (e *Editor) Fault(site string, detail int) error {
	return e.fault(site, detail)
}

// vmaAt finds the VMA entry containing addr.
func vmaAt(pi *criu.ProcImage, addr uint64) (criu.VMAEntry, bool) {
	for _, v := range pi.MM.VMAs {
		if addr >= v.Start && addr < v.End {
			return v, true
		}
	}
	return criu.VMAEntry{}, false
}

// ReadMem reads n bytes at addr from the dumped pages.
func (e *Editor) ReadMem(pid int, addr uint64, n int) ([]byte, error) {
	pi, err := e.set.Proc(pid)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	for done := 0; done < n; {
		a := addr + uint64(done)
		page, err := pi.Page(a / kernel.PageSize)
		if err != nil {
			return nil, fmt.Errorf("read %#x: %w", a, err)
		}
		done += copy(out[done:], page[a%kernel.PageSize:])
	}
	return out, nil
}

// WriteMem patches bytes at addr in the dumped pages. Writing to a
// page absent from the image fails with criu.ErrPageAbsent — dump
// with DumpOpts.ExecPages to make code pages patchable (the paper's
// CRIU modification).
func (e *Editor) WriteMem(pid int, addr uint64, b []byte) error {
	if err := e.fault(faultinject.SiteEditWrite, pid); err != nil {
		return err
	}
	pi, err := e.set.Proc(pid)
	if err != nil {
		return err
	}
	if _, ok := vmaAt(pi, addr); !ok {
		return fmt.Errorf("%w: %#x", ErrNotMapped, addr)
	}
	for done := 0; done < len(b); {
		a := addr + uint64(done)
		pn := a / kernel.PageSize
		page, err := pi.Page(pn)
		if err != nil {
			return fmt.Errorf("write %#x: %w", a, err)
		}
		if !e.owned[&page[0]] {
			page = bytes.Clone(page)
			if err := pi.SetPage(pn, page); err != nil {
				return err
			}
			e.owned[&page[0]] = true
		}
		done += copy(page[a%kernel.PageSize:], b[done:])
	}
	return nil
}

// WipeRange fills [addr, addr+size) with INT3, removing every
// instruction of a block so mid-block jumps (ROP) trap too — the
// aggressive policy of §3.2.2.
func (e *Editor) WipeRange(pid int, addr, size uint64) error {
	return e.WriteMem(pid, addr, bytes.Repeat([]byte{0xCC}, int(size)))
}

// UnmapRange removes the page-aligned range from the VMA table and
// drops its pages: the strongest policy — the memory simply is not
// there any more.
func (e *Editor) UnmapRange(pid int, start, end uint64) error {
	if err := e.fault(faultinject.SiteEditUnmap, pid); err != nil {
		return err
	}
	if start%kernel.PageSize != 0 || end%kernel.PageSize != 0 || end <= start {
		return fmt.Errorf("%w: %#x-%#x", ErrAlignment, start, end)
	}
	pi, err := e.set.Proc(pid)
	if err != nil {
		return err
	}
	var out []criu.VMAEntry
	touched := false
	for _, v := range pi.MM.VMAs {
		if end <= v.Start || v.End <= start {
			out = append(out, v)
			continue
		}
		touched = true
		if v.Start < start {
			left := v
			left.End = start
			out = append(out, left)
		}
		if end < v.End {
			right := v
			right.Start = end
			out = append(out, right)
		}
	}
	if !touched {
		return fmt.Errorf("%w: %#x-%#x", ErrNotMapped, start, end)
	}
	pi.MM.VMAs = out
	pi.DropPages(start/kernel.PageSize, end/kernel.PageSize)
	return nil
}

// AddVMA installs a new anonymous VMA with the given initial
// contents (library injection, extra stacks, ...).
func (e *Editor) AddVMA(pid int, v criu.VMAEntry, data []byte) error {
	if v.Start%kernel.PageSize != 0 || v.End%kernel.PageSize != 0 || v.End <= v.Start {
		return fmt.Errorf("%w: %#x-%#x", ErrAlignment, v.Start, v.End)
	}
	pi, err := e.set.Proc(pid)
	if err != nil {
		return err
	}
	for _, old := range pi.MM.VMAs {
		if v.Start < old.End && old.Start < v.End {
			return fmt.Errorf("crit: VMA %#x-%#x overlaps %s", v.Start, v.End, old.Name)
		}
	}
	if uint64(len(data)) > v.End-v.Start {
		return fmt.Errorf("crit: data larger than VMA")
	}
	pi.MM.VMAs = append(pi.MM.VMAs, v)
	// Install page contents.
	buf := make([]byte, v.End-v.Start)
	copy(buf, data)
	for off := uint64(0); off < uint64(len(buf)); off += kernel.PageSize {
		pn := (v.Start + off) / kernel.PageSize
		if err := pi.SetPage(pn, buf[off:off+kernel.PageSize]); err != nil {
			return err
		}
		e.owned[&buf[off]] = true
	}
	return nil
}

// SetSigaction updates (or adds) a signal disposition in the core
// image — how DynaCut arms its injected SIGTRAP handler.
func (e *Editor) SetSigaction(pid, signo int, handler, restorer uint64) error {
	pi, err := e.set.Proc(pid)
	if err != nil {
		return err
	}
	for i := range pi.Core.Sigs {
		if pi.Core.Sigs[i].Signo == signo {
			pi.Core.Sigs[i].Handler = handler
			pi.Core.Sigs[i].Restorer = restorer
			return nil
		}
	}
	pi.Core.Sigs = append(pi.Core.Sigs, criu.SigEntry{
		Signo: signo, Handler: handler, Restorer: restorer,
	})
	return nil
}

// SetSyscallFilter installs a seccomp-style allow list in the core
// image (§5: dynamically enabling/disabling seccomp filtering via
// process rewriting). nil removes the filter.
func (e *Editor) SetSyscallFilter(pid int, allowed []uint64) error {
	pi, err := e.set.Proc(pid)
	if err != nil {
		return err
	}
	if allowed == nil {
		pi.Core.HasFilter = false
		pi.Core.SysFilter = nil
		return nil
	}
	pi.Core.HasFilter = true
	pi.Core.SysFilter = append([]uint64(nil), allowed...)
	return nil
}

// Modules lists the mapped binaries recorded in the mm image.
func (e *Editor) Modules(pid int) ([]criu.ModuleEntry, error) {
	pi, err := e.set.Proc(pid)
	if err != nil {
		return nil, err
	}
	return append([]criu.ModuleEntry(nil), pi.MM.Modules...), nil
}

// VMAs lists the VMA entries of the mm image.
func (e *Editor) VMAs(pid int) ([]criu.VMAEntry, error) {
	pi, err := e.set.Proc(pid)
	if err != nil {
		return nil, err
	}
	return append([]criu.VMAEntry(nil), pi.MM.VMAs...), nil
}

// FindModule returns the module entry with the given name.
func (e *Editor) FindModule(pid int, name string) (criu.ModuleEntry, error) {
	mods, err := e.Modules(pid)
	if err != nil {
		return criu.ModuleEntry{}, err
	}
	for _, mod := range mods {
		if mod.Name == name {
			return mod, nil
		}
	}
	return criu.ModuleEntry{}, fmt.Errorf("%w: %q", ErrNoModule, name)
}

// ResolveSymbol finds the runtime address of a symbol exported by any
// module in the image, consulting the file store for symbol tables
// (how the paper resolves PLT relocations of the injected library
// against the mapped libc).
func (e *Editor) ResolveSymbol(pid int, name string) (uint64, error) {
	if e.store == nil {
		return 0, fmt.Errorf("crit: no file store for symbol resolution")
	}
	mods, err := e.Modules(pid)
	if err != nil {
		return 0, err
	}
	for _, mod := range mods {
		file, err := e.store.Binary(mod.Name)
		if err != nil {
			continue
		}
		sym, err := file.Symbol(name)
		if err != nil || !sym.Global {
			continue
		}
		lo, _ := file.ImageSpan()
		return mod.Lo - lo + sym.Value, nil
	}
	return 0, fmt.Errorf("crit: symbol %q not found in any module", name)
}

// InsertLibrary maps a position-independent shared library at base
// inside the image: section VMAs and pages are added, the library's
// dynamic relocations are applied (its own RelAbs64 plus RelGOT64
// imports resolved against the image's modules), and a module entry
// is recorded. It returns the absolute addresses of the library's
// global symbols. base 0 picks an unused, page-aligned address.
func (e *Editor) InsertLibrary(pid int, lib *delf.File, base uint64) (map[string]uint64, error) {
	if lib.Type != delf.TypeDyn {
		return nil, fmt.Errorf("crit: %s is not a shared library", lib.Name)
	}
	pi, err := e.set.Proc(pid)
	if err != nil {
		return nil, err
	}
	lo, hi := lib.ImageSpan()
	span := (hi - lo + kernel.PageSize - 1) / kernel.PageSize * kernel.PageSize
	if base == 0 {
		base = e.findFreeRange(pi, span)
	}
	if base%kernel.PageSize != 0 {
		return nil, fmt.Errorf("%w: base %#x", ErrAlignment, base)
	}

	// Compute relocation patches before mutating the image.
	patches, err := link.DynamicPatches(lib, base, func(name string) (uint64, bool) {
		addr, rerr := e.ResolveSymbol(pid, name)
		return addr, rerr == nil
	})
	if err != nil {
		return nil, err
	}

	// Map sections.
	for _, sec := range lib.Sections {
		start := base + sec.Addr
		end := start + (sec.Size+kernel.PageSize-1)/kernel.PageSize*kernel.PageSize
		v := criu.VMAEntry{
			Start: start, End: end, Perm: uint8(sec.Perm),
			Name: lib.Name + ":" + sec.Name, Anon: true,
		}
		var data []byte
		if len(sec.Data) > 0 {
			data = sec.Data
		}
		if err := e.AddVMA(pid, v, data); err != nil {
			return nil, fmt.Errorf("inject %s: %w", v.Name, err)
		}
	}
	for _, pt := range patches {
		if err := e.WriteMem(pid, pt.Addr, pt.Bytes); err != nil {
			return nil, fmt.Errorf("inject reloc: %w", err)
		}
	}
	pi.MM.Modules = append(pi.MM.Modules, criu.ModuleEntry{
		Name: lib.Name, Lo: base + lo, Hi: base + hi,
	})

	exports := map[string]uint64{}
	for _, sym := range lib.Symbols {
		if sym.Global {
			exports[sym.Name] = base + sym.Value
		}
	}
	return exports, nil
}

// RemoveLibrary unwinds an InsertLibrary: the module entry named name
// is dropped and every section VMA the injection added (named
// "<name>:<section>") is removed along with its pages. It is the
// partial-failure cleanup path for handler injection — deliberately
// free of fault-hook sites, so an unwind cannot itself be chaos-killed
// into leaking the mapping it exists to reclaim.
func (e *Editor) RemoveLibrary(pid int, name string) error {
	pi, err := e.set.Proc(pid)
	if err != nil {
		return err
	}
	prefix := name + ":"
	kept := pi.MM.VMAs[:0:0]
	removed := false
	for _, v := range pi.MM.VMAs {
		if len(v.Name) > len(prefix) && v.Name[:len(prefix)] == prefix {
			pi.DropPages(v.Start/kernel.PageSize, v.End/kernel.PageSize)
			removed = true
			continue
		}
		kept = append(kept, v)
	}
	mods := pi.MM.Modules[:0:0]
	for _, mod := range pi.MM.Modules {
		if mod.Name == name {
			removed = true
			continue
		}
		mods = append(mods, mod)
	}
	if !removed {
		return fmt.Errorf("%w: %q", ErrNoModule, name)
	}
	pi.MM.VMAs = kept
	pi.MM.Modules = mods
	return nil
}

// findFreeRange picks a page-aligned hole of the given size, below
// the stack and above every mapping (default library injection site;
// the paper randomizes it, we keep it deterministic for tests).
func (e *Editor) findFreeRange(pi *criu.ProcImage, span uint64) uint64 {
	const injectBase = 0x7000_0000_0000
	base := uint64(injectBase)
	for {
		conflict := false
		for _, v := range pi.MM.VMAs {
			if base < v.End && v.Start < base+span {
				conflict = true
				if v.End > base {
					base = (v.End + kernel.PageSize - 1) / kernel.PageSize * kernel.PageSize
				}
				break
			}
		}
		if !conflict {
			return base
		}
	}
}

// JSON views (the `crit decode` workflow) -----------------------------

// CoreJSON renders the core image as JSON.
func (e *Editor) CoreJSON(pid int) ([]byte, error) {
	pi, err := e.set.Proc(pid)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(&pi.Core, "", "  ")
}

// MMJSON renders the mm image as JSON.
func (e *Editor) MMJSON(pid int) ([]byte, error) {
	pi, err := e.set.Proc(pid)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(&pi.MM, "", "  ")
}
