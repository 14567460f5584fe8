package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/dynacut/dynacut/internal/delf"
)

func TestDiskReadWrite(t *testing.T) {
	m := NewMachine()
	if _, err := m.ReadFile("missing"); !errors.Is(err, ErrNoFile) {
		t.Errorf("ReadFile(missing) err = %v", err)
	}
	m.WriteFile("bin", []byte{1, 2, 3})
	got, err := m.ReadFile("bin")
	if err != nil || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("ReadFile = %v, %v", got, err)
	}
	// The stored copy is isolated from later mutation of the input.
	src := []byte{9, 9}
	m.WriteFile("iso", src)
	src[0] = 0
	got, _ = m.ReadFile("iso")
	if got[0] != 9 {
		t.Error("WriteFile aliased the caller's slice")
	}
}

// diskExitSrc is a guest that exits with code.
func diskExitSrc(code int) string {
	return fmt.Sprintf(".text\n.global _start\n_start:\n\tmov r0, 1\n\tmov r1, %d\n\tsyscall\n", code)
}

// TestDiskReadFileReturnsCopy: clones share disk files, so a caller
// writing into ReadFile's result must change neither the blob nor its
// parsed binary, on the machine or on any clone.
func TestDiskReadFileReturnsCopy(t *testing.T) {
	m := NewMachine()
	exe := buildExe(t, "prog", diskExitSrc(0))
	blob := exe.Marshal()
	m.WriteFile("prog", blob)
	c := m.Clone()
	bin, err := m.Binary("prog")
	if err != nil {
		t.Fatal(err)
	}

	got, err := m.ReadFile("prog")
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		got[i] = 0xff
	}
	for name, mm := range map[string]*Machine{"machine": m, "clone": c} {
		if again, _ := mm.ReadFile("prog"); !bytes.Equal(again, blob) {
			t.Errorf("%s: ReadFile changed after a caller wrote into its result", name)
		}
		b, err := mm.Binary("prog")
		if err != nil || b != bin || !bytes.Equal(b.Marshal(), blob) {
			t.Errorf("%s: Binary changed after a caller wrote into ReadFile's result (err %v)", name, err)
		}
	}
}

// TestDiskBinaryParsedOnce: WriteFile parses once, clones share the
// parsed file, a rewrite replaces it, and a blob that is not DELF is
// stored with its parse error, reported by Binary.
func TestDiskBinaryParsedOnce(t *testing.T) {
	m := NewMachine()
	if _, err := m.Binary("missing"); !errors.Is(err, ErrNoFile) {
		t.Errorf("Binary(missing) err = %v", err)
	}
	first := buildExe(t, "prog", diskExitSrc(0))
	m.WriteFile("prog", first.Marshal())
	bin, err := m.Binary("prog")
	if err != nil || bin.Name != "prog" {
		t.Fatalf("Binary = %+v, %v", bin, err)
	}
	c := m.Clone()
	cc := c.Clone()
	for name, mm := range map[string]*Machine{"clone": c, "clone of clone": cc} {
		if b, err := mm.Binary("prog"); err != nil || b != bin {
			t.Errorf("%s: Binary = %p, %v; want the template's %p", name, b, err, bin)
		}
	}

	second := buildExe(t, "prog", diskExitSrc(1))
	c.WriteFile("prog", second.Marshal())
	nb, err := c.Binary("prog")
	if err != nil || nb == bin || !bytes.Equal(nb.Marshal(), second.Marshal()) {
		t.Fatalf("after WriteFile the clone's Binary = %p, %v; want a fresh parse of the new blob", nb, err)
	}
	if b, _ := m.Binary("prog"); b != bin {
		t.Error("a clone's WriteFile replaced the template's binary")
	}

	m.WriteFile("junk", []byte{1, 2, 3})
	if _, err := m.ReadFile("junk"); err != nil {
		t.Fatalf("ReadFile(junk) = %v", err)
	}
	if b, err := m.Binary("junk"); b != nil || !errors.Is(err, delf.ErrBadFile) {
		t.Errorf("Binary(junk) = %v, %v; want the parse error", b, err)
	}
}

func TestProcessLookupErrors(t *testing.T) {
	m := NewMachine()
	if _, err := m.Process(42); !errors.Is(err, ErrNoProcess) {
		t.Errorf("Process(42) err = %v", err)
	}
	if err := m.Kill(42); !errors.Is(err, ErrNoProcess) {
		t.Errorf("Kill(42) err = %v", err)
	}
	if got := m.Children(42); len(got) != 0 {
		t.Errorf("Children = %v", got)
	}
}

// moduleAt returns p's module containing addr.
func moduleAt(p *Process, addr uint64) (Module, bool) {
	for _, mod := range p.Modules() {
		if mod.Contains(addr) {
			return mod, true
		}
	}
	return Module{}, false
}

func TestModuleAt(t *testing.T) {
	p := newProcess(1, 0, "x")
	p.AddModule(Module{Name: "a", Lo: 0x1000, Hi: 0x2000})
	p.AddModule(Module{Name: "b", Lo: 0x3000, Hi: 0x4000})
	if mod, ok := moduleAt(p, 0x1800); !ok || mod.Name != "a" {
		t.Errorf("ModuleAt(a) = %v %v", mod, ok)
	}
	if _, ok := moduleAt(p, 0x2800); ok {
		t.Error("ModuleAt(hole) hit")
	}
	mods := p.Modules()
	if len(mods) != 2 {
		t.Errorf("Modules = %v", mods)
	}
	// Returned slice is a copy.
	mods[0].Name = "mutated"
	if got, _ := moduleAt(p, 0x1000); got.Name != "a" {
		t.Error("Modules exposed internal state")
	}
}

func TestSyscallFilterAccessors(t *testing.T) {
	p := newProcess(1, 0, "x")
	if p.SyscallFilter() != nil {
		t.Error("fresh process has a filter")
	}
	p.SetSyscallFilter([]uint64{5, 1, 3})
	got := p.SyscallFilter()
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Errorf("filter = %v (want sorted)", got)
	}
	p.SetSyscallFilter(nil)
	if p.SyscallFilter() != nil {
		t.Error("filter not cleared")
	}
	// Empty filter is distinct from none.
	p.SetSyscallFilter([]uint64{})
	if p.SyscallFilter() == nil {
		t.Error("deny-all filter reported as none")
	}
}
