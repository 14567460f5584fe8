package dynacut

import (
	"testing"

	applibc "github.com/dynacut/dynacut/internal/apps/libc"
	"github.com/dynacut/dynacut/internal/asm"
	"github.com/dynacut/dynacut/internal/core"
	"github.com/dynacut/dynacut/internal/delf/link"
)

// assembleLibrary builds a position-independent shared library from
// assembly source, the library counterpart of Assemble.
func assembleLibrary(name, src string) (*Binary, error) {
	obj, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	return link.Library(name, []*asm.Object{obj})
}

// TestExportedSlicesAreCopies: mutating returned slices must not
// corrupt package state.
func TestExportedSlicesAreCopies(t *testing.T) {
	profiles := SpecProfiles()
	if len(profiles) == 0 {
		t.Fatal("no profiles")
	}
	orig := profiles[0].Name
	profiles[0].Name = "mutated"
	if SpecProfiles()[0].Name != orig {
		t.Error("SpecProfiles exposed internal state")
	}

	sys := ServingSyscalls()
	if len(sys) == 0 {
		t.Fatal("no serving syscalls")
	}
	sys[0] = 999999
	if ServingSyscalls()[0] == 999999 {
		t.Error("ServingSyscalls exposed internal state")
	}
	if len(core.MasterSyscalls) == 0 {
		t.Error("no master syscalls")
	}
}

func TestAssembleErrorsSurface(t *testing.T) {
	if _, err := Assemble("bad", "not assembly at all"); err == nil {
		t.Error("garbage source assembled")
	}
	if _, err := assembleLibrary("bad.so", ".text\nf:\n\tjmp nowhere\n"); err == nil {
		t.Error("library with undefined symbol linked")
	}
	// Missing _start.
	if _, err := Assemble("nostart", ".text\nf: ret\n"); err == nil {
		t.Error("executable without _start linked")
	}
}

func TestPolicyConstantsDistinct(t *testing.T) {
	set := map[Policy]bool{
		PolicyBlockEntry: true,
		PolicyWipeBlocks: true,
		PolicyUnmapPages: true,
	}
	if len(set) != 3 {
		t.Error("policy constants collide")
	}
}

func TestGraphHelpers(t *testing.T) {
	app, err := BuildKVStore(KVStoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := StartServer(app.Exe, []*Binary{app.Libc}, app.Config.Port)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Request("PING\n"); err != nil {
		t.Fatal(err)
	}
	g1, err := sess.SnapshotPhase("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Request("SET a v\n"); err != nil {
		t.Fatal(err)
	}
	g2, err := sess.SnapshotPhase("b")
	if err != nil {
		t.Fatal(err)
	}
	merged := MergeGraphs(g1, g2)
	if merged.Count() < g1.Count() || merged.Count() < g2.Count() {
		t.Error("merge lost blocks")
	}
	d := DiffGraphs(g2, g1)
	if d.Count() == 0 {
		t.Error("SET produced no unique blocks over PING")
	}
	if d.Count() >= g2.Count() {
		t.Error("diff did not remove shared blocks")
	}
}

// TestAnalyzeCFGOnLibrary: static analysis also works on shared
// libraries (used for the libc customization extension).
func TestAnalyzeCFGOnLibrary(t *testing.T) {
	lib, err := applibc.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := AnalyzeCFG(lib)
	if cfg.Count() < 20 {
		t.Errorf("libc CFG has only %d blocks", cfg.Count())
	}
}
