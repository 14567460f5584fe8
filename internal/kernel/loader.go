package kernel

import (
	"fmt"

	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/delf/link"
	"github.com/dynacut/dynacut/internal/isa"
)

// Address-space layout constants.
const (
	// LibBase is where the first shared library is mapped; subsequent
	// libraries follow at LibStride intervals.
	LibBase   uint64 = 0x10000000
	LibStride uint64 = 0x01000000
	// StackTop/StackSize place the stack VMA.
	StackTop  uint64 = 0x7ffe_0000_0000
	StackSize uint64 = 64 * PageSize
)

// Module records one mapped binary for tracing and rewriting.
type Module struct {
	Name string
	Lo   uint64
	Hi   uint64
}

// Contains reports whether addr falls inside the module.
func (mod Module) Contains(addr uint64) bool { return addr >= mod.Lo && addr < mod.Hi }

// Modules returns the mapped binaries of p sorted by load order.
func (p *Process) Modules() []Module { return append([]Module(nil), p.modules...) }

// AddModule records a mapped binary (restore/injection path).
func (p *Process) AddModule(mod Module) { p.modules = append(p.modules, mod) }

// Load maps an executable and its shared libraries into a fresh
// process, applies dynamic relocations (GOT fill), sets up the stack,
// and leaves the process runnable at the entry point.
func (m *Machine) Load(exe *delf.File, libs ...*delf.File) (*Process, error) {
	if exe.Type != delf.TypeExec {
		return nil, fmt.Errorf("kernel: %s is not an executable", exe.Name)
	}
	// Persist the binaries on "disk" so restores can re-materialize
	// file-backed pages.
	m.WriteFile(exe.Name, exe.Marshal())
	for _, lib := range libs {
		m.WriteFile(lib.Name, lib.Marshal())
	}

	p := m.NewRawProcess(exe.Name, 0)

	if err := mapImage(p, exe, 0); err != nil {
		m.Remove(p.pid)
		return nil, err
	}

	// Map libraries and build the global export table.
	exports := map[string]uint64{}
	libBases := map[string]uint64{}
	for i, lib := range libs {
		base := LibBase + uint64(i)*LibStride
		if err := mapImage(p, lib, base); err != nil {
			m.Remove(p.pid)
			return nil, err
		}
		libBases[lib.Name] = base
		for _, sym := range lib.Symbols {
			if sym.Global {
				if _, dup := exports[sym.Name]; !dup {
					exports[sym.Name] = base + sym.Value
				}
			}
		}
	}
	resolve := func(name string) (uint64, bool) {
		a, ok := exports[name]
		return a, ok
	}

	// Dynamic relocations: each library against its own base, then
	// the executable's GOT against the library exports.
	for i, lib := range libs {
		base := LibBase + uint64(i)*LibStride
		patches, err := link.DynamicPatches(lib, base, resolve)
		if err != nil {
			m.Remove(p.pid)
			return nil, err
		}
		if err := applyPatches(p, patches); err != nil {
			m.Remove(p.pid)
			return nil, err
		}
	}
	patches, err := link.DynamicPatches(exe, 0, resolve)
	if err != nil {
		m.Remove(p.pid)
		return nil, err
	}
	if err := applyPatches(p, patches); err != nil {
		m.Remove(p.pid)
		return nil, err
	}

	// Stack.
	if err := p.mem.Map(VMA{
		Start: StackTop - StackSize, End: StackTop,
		Perm: delf.PermR | delf.PermW, Name: "[stack]", Anon: true,
	}); err != nil {
		m.Remove(p.pid)
		return nil, err
	}
	p.regs[isa.SP] = StackTop - 16
	p.SetRIP(exe.Entry)
	return p, nil
}

// mapImage maps every section of file at base into p's address space
// and copies the initial contents. Writable sections become anonymous
// VMAs (private dirty memory, dumped by vanilla CRIU); read-only and
// executable ones stay file-backed (dumped only with DynaCut's
// dump-executable-pages option).
func mapImage(p *Process, file *delf.File, base uint64) error {
	lo, hi := file.ImageSpan()
	if hi == lo {
		return fmt.Errorf("kernel: %s has no sections", file.Name)
	}
	for _, sec := range file.Sections {
		start := base + sec.Addr
		end := start + (sec.Size+PageSize-1)/PageSize*PageSize
		v := VMA{
			Start: start, End: end, Perm: sec.Perm,
			Name:        file.Name + ":" + sec.Name,
			Backing:     file.Name,
			BackSection: sec.Name,
			Anon:        sec.Perm&delf.PermW != 0,
		}
		if err := p.mem.Map(v); err != nil {
			return fmt.Errorf("map %s: %w", v.Name, err)
		}
		if len(sec.Data) > 0 {
			if err := p.mem.Write(start, sec.Data); err != nil {
				return fmt.Errorf("populate %s: %w", v.Name, err)
			}
		}
	}
	p.AddModule(Module{Name: file.Name, Lo: base + lo, Hi: base + hi})
	return nil
}

func applyPatches(p *Process, patches []link.Patch) error {
	for _, pt := range patches {
		if err := p.mem.Write(pt.Addr, pt.Bytes); err != nil {
			return fmt.Errorf("reloc patch at %#x: %w", pt.Addr, err)
		}
	}
	return nil
}
