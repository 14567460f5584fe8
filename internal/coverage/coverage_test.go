package coverage

import (
	"testing"
	"testing/quick"

	"github.com/dynacut/dynacut/internal/trace"
)

func logWith(blocks ...trace.RawBlock) *trace.Log {
	return &trace.Log{
		Program: "p",
		Modules: []trace.ModuleInfo{
			{ID: 0, Lo: 0x400000, Hi: 0x500000, Name: "prog"},
			{ID: 1, Lo: 0x10000000, Hi: 0x10100000, Name: "libc.so"},
		},
		Blocks: blocks,
	}
}

func TestFromLogModuleRelative(t *testing.T) {
	g := FromLog(logWith(
		trace.RawBlock{Addr: 0x400010, Size: 15},
		trace.RawBlock{Addr: 0x10000020, Size: 5},
	))
	if g.Count() != 2 {
		t.Fatalf("Count = %d", g.Count())
	}
	if !g.Contains("prog", 0x10) {
		t.Error("prog block missing")
	}
	if !g.Contains("libc.so", 0x20) {
		t.Error("libc block missing")
	}
	if g.Contains("prog", 0x20) {
		t.Error("phantom block")
	}
	if base, ok := g.ModuleBase("prog"); !ok || base != 0x400000 {
		t.Errorf("ModuleBase = %#x/%v", base, ok)
	}
}

func TestDiffProperty(t *testing.T) {
	undesired := FromLog(logWith(
		trace.RawBlock{Addr: 0x400010, Size: 15}, // shared
		trace.RawBlock{Addr: 0x400030, Size: 5},  // unique to undesired
		trace.RawBlock{Addr: 0x10000020, Size: 5},
	))
	wanted := FromLog(logWith(
		trace.RawBlock{Addr: 0x400010, Size: 15},
		trace.RawBlock{Addr: 0x400050, Size: 8},
		trace.RawBlock{Addr: 0x10000020, Size: 5},
	))
	d := Diff(undesired, wanted)
	if d.Count() != 1 || !d.Contains("prog", 0x30) {
		t.Fatalf("Diff = %+v", d.Blocks())
	}
	// The feature-discovery pipeline then filters libraries.
	f := d.FilterModules(func(m string) bool { return m == "prog" })
	if f.Count() != 1 {
		t.Fatalf("filtered diff = %d", f.Count())
	}
}

func TestDiffIgnoresSizeVariation(t *testing.T) {
	// A block seen truncated in one trace (signal interruption) must
	// still count as covered.
	a := NewGraph()
	a.Add(Block{Module: "m", Off: 0x10, Size: 15})
	b := NewGraph()
	b.Add(Block{Module: "m", Off: 0x10, Size: 7})
	if Diff(a, b).Count() != 0 {
		t.Error("size variation produced a spurious diff")
	}
}

func TestMerge(t *testing.T) {
	g1 := NewGraph()
	g1.Add(Block{Module: "m", Off: 1, Size: 2})
	g2 := NewGraph()
	g2.Add(Block{Module: "m", Off: 1, Size: 2})
	g2.Add(Block{Module: "m", Off: 5, Size: 3})
	merged := Merge(g1, g2, nil)
	if merged.Count() != 2 {
		t.Fatalf("Merge count = %d", merged.Count())
	}
}

func TestTotalBytesAndBlocksSorted(t *testing.T) {
	g := NewGraph()
	g.Add(Block{Module: "b", Off: 10, Size: 4})
	g.Add(Block{Module: "a", Off: 20, Size: 6})
	g.Add(Block{Module: "a", Off: 5, Size: 1})
	bs := g.Blocks()
	var total uint64
	for _, b := range bs {
		total += b.Size
	}
	if total != 11 {
		t.Errorf("total block bytes = %d", total)
	}
	if bs[0].Module != "a" || bs[0].Off != 5 || bs[2].Module != "b" {
		t.Errorf("Blocks order = %+v", bs)
	}
}

func TestAbsolute(t *testing.T) {
	g := FromLog(logWith(
		trace.RawBlock{Addr: 0x400010, Size: 15},
		trace.RawBlock{Addr: 0x99999999, Size: 7}, // orphan: absolute key
	))
	abs := g.Absolute()
	if len(abs) != 2 {
		t.Fatalf("Absolute = %+v", abs)
	}
	if abs[0].Addr != 0x400010 || abs[1].Addr != 0x99999999 {
		t.Errorf("Absolute addrs = %+v", abs)
	}
}

// Property: set algebra laws — Diff(a,a) empty; Diff(a,empty)==a;
// Merge idempotent.
func TestQuickSetAlgebra(t *testing.T) {
	mk := func(offs []uint16) *Graph {
		g := NewGraph()
		for _, o := range offs {
			g.Add(Block{Module: "m", Off: uint64(o), Size: 1})
		}
		return g
	}
	f := func(offs []uint16) bool {
		g := mk(offs)
		if Diff(g, g).Count() != 0 {
			return false
		}
		if Diff(g, NewGraph()).Count() != g.Count() {
			return false
		}
		if Merge(g, g).Count() != g.Count() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Diff(a,b) and what it leaves of a, Diff(a, Diff(a,b)),
// partition a when all sizes are equal.
func TestQuickDiffPartition(t *testing.T) {
	mk := func(offs []uint8) *Graph {
		g := NewGraph()
		for _, o := range offs {
			g.Add(Block{Module: "m", Off: uint64(o), Size: 1})
		}
		return g
	}
	f := func(aOffs, bOffs []uint8) bool {
		a, b := mk(aOffs), mk(bOffs)
		d := Diff(a, b)
		return d.Count()+Diff(a, d).Count() == a.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
