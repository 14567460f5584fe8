package trace

import (
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/kernel"
)

func sampleModules() []kernel.Module {
	return []kernel.Module{
		{Name: "prog", Lo: 0x400000, Hi: 0x406000},
		{Name: "libc.so", Lo: 0x10000000, Hi: 0x10008000},
	}
}

func TestCollectorDedup(t *testing.T) {
	c := NewCollector("prog")
	c.OnBlock(1, 0x400010, 15)
	c.OnBlock(1, 0x400010, 15)
	c.OnBlock(1, 0x400030, 5)
	c.OnBlock(2, 0x10000100, 3) // another process, library block
	c.OnBlock(1, 0x400010, 7)   // the same entry, cut short by a trap
	c.OnBlock(1, 0x400110, 4)   // shares 0x400010's memo slot
	c.OnBlock(1, 0x400010, 15)
	if len(c.blocks) != 5 {
		t.Fatalf("Unique = %d, want 5", len(c.blocks))
	}
	if c.hits != 7 {
		t.Fatalf("Hits = %d, want 7", c.hits)
	}
	l := c.Snapshot(sampleModules(), "full")
	if len(l.Blocks) != 5 {
		t.Fatalf("blocks = %d", len(l.Blocks))
	}
	// Sorted by address.
	for i := 1; i < len(l.Blocks); i++ {
		if l.Blocks[i-1].Addr > l.Blocks[i].Addr {
			t.Fatal("blocks not sorted")
		}
	}
}

func TestNudgeSnapshotAndReset(t *testing.T) {
	c := NewCollector("srv")
	c.OnBlock(1, 0x400000, 10)
	initLog := c.SnapshotAndReset(sampleModules(), "init")
	if len(initLog.Blocks) != 1 || initLog.Phase != "init" {
		t.Fatalf("init log = %+v", initLog)
	}
	if len(c.blocks) != 0 {
		t.Fatal("collector not reset")
	}
	c.OnBlock(1, 0x400000, 10) // seen before the reset: counts again
	c.OnBlock(1, 0x400100, 5)
	servingLog := c.Snapshot(sampleModules(), "serving")
	if len(servingLog.Blocks) != 2 || servingLog.Blocks[0].Addr != 0x400000 || servingLog.Blocks[1].Addr != 0x400100 {
		t.Fatalf("serving log = %+v", servingLog)
	}
}

func TestLogRoundTrip(t *testing.T) {
	c := NewCollector("prog")
	c.OnBlock(1, 0x400010, 15)
	c.OnBlock(1, 0x10000100, 3)
	c.OnBlock(1, 0x99999999, 7) // outside any module
	l := c.Snapshot(sampleModules(), "full")
	text := string(l.Marshal())
	if !strings.Contains(text, "PROGRAM: prog") {
		t.Errorf("missing program header:\n%s", text)
	}
	if !strings.Contains(text, "module[-1]") {
		t.Errorf("orphan block not marked:\n%s", text)
	}
	got, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got.Program != "prog" || got.Phase != "full" {
		t.Errorf("headers = %q/%q", got.Program, got.Phase)
	}
	if len(got.Blocks) != len(l.Blocks) {
		t.Fatalf("blocks %d != %d", len(got.Blocks), len(l.Blocks))
	}
	for i := range got.Blocks {
		if got.Blocks[i] != l.Blocks[i] {
			t.Errorf("block %d: %+v != %+v", i, got.Blocks[i], l.Blocks[i])
		}
	}
	if len(got.Modules) != 2 || got.Modules[1].Name != "libc.so" {
		t.Errorf("modules = %+v", got.Modules)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"NOT A LOG\n",
		"DRCOV VERSION: 1\nPROGRAM: x\nPHASE: f\nMODULE TABLE: 1\n",                                     // truncated module table
		"DRCOV VERSION: 1\nPROGRAM: x\nPHASE: f\nMODULE TABLE: 0\nBB TABLE: 2 bbs\n",                    // truncated bb table
		"DRCOV VERSION: 1\nPROGRAM: x\nPHASE: f\nMODULE TABLE: 0\nBB TABLE: junk\n",                     // bad count
		"DRCOV VERSION: 1\nPROGRAM: x\nPHASE: f\nMODULE TABLE: 1\nbadrow\nBB TABLE: 0 bbs\n",            // bad module row
		"DRCOV VERSION: 1\nPROGRAM: x\nPHASE: f\nMODULE TABLE: 0\nBB TABLE: 1 bbs\nmodule[7]: 0x0, 5\n", // unknown module id
	}
	for i, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("case %d parsed successfully", i)
		}
	}
}

func TestModuleOf(t *testing.T) {
	l := &Log{Modules: []ModuleInfo{{ID: 0, Lo: 100, Hi: 200, Name: "m"}}}
	if m, ok := l.ModuleOf(150); !ok || m.Name != "m" {
		t.Error("ModuleOf inside failed")
	}
	if _, ok := l.ModuleOf(200); ok {
		t.Error("ModuleOf boundary hit")
	}
}
