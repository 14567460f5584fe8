// Package coverage builds code-coverage graphs from execution-trace
// logs and implements DynaCut's differential analysis (the paper's
// tracediff.py): merging traces of wanted requests, diffing against
// traces of undesired requests, filtering out library blocks, and
// splitting initialization-phase from serving-phase coverage.
//
// The central set property (§3.1): an undesired block blk satisfies
//
//	blk ∈ CovG_undesired ∧ blk ∉ CovG_wanted
//
// and an initialization-only block satisfies
//
//	blk ∈ CovG_init ∧ blk ∉ CovG_serving.
package coverage

import (
	"sort"

	"github.com/dynacut/dynacut/internal/trace"
)

// Block is one basic block keyed by module-relative position, so that
// graphs built from different runs (with libraries at different
// bases) still compare correctly.
type Block struct {
	Module string
	Off    uint64
	Size   uint64
}

// key identifies a block; size participates so that differing decode
// extents are distinct blocks, like drcov.
type key struct {
	module string
	off    uint64
	size   uint64
}

// Graph is a set of covered basic blocks (a code coverage graph).
type Graph struct {
	blocks map[key]struct{}
	// moduleBase remembers the lowest-seen base per module so
	// Absolute can reconstruct addresses for single-machine flows.
	moduleBase map[string]uint64
}

// NewGraph returns an empty coverage graph.
func NewGraph() *Graph {
	return &Graph{blocks: map[key]struct{}{}, moduleBase: map[string]uint64{}}
}

// FromLog builds a graph from one trace log. Blocks outside any
// module are keyed under module "" with absolute offsets.
func FromLog(l *trace.Log) *Graph {
	g := NewGraph()
	g.AddLog(l)
	return g
}

// AddLog merges a trace log into the graph.
func (g *Graph) AddLog(l *trace.Log) {
	for _, m := range l.Modules {
		g.moduleBase[m.Name] = m.Lo
	}
	for _, b := range l.Blocks {
		if m, ok := l.ModuleOf(b.Addr); ok {
			g.blocks[key{module: m.Name, off: b.Addr - m.Lo, size: b.Size}] = struct{}{}
		} else {
			g.blocks[key{module: "", off: b.Addr, size: b.Size}] = struct{}{}
		}
	}
}

// Add inserts a single block.
func (g *Graph) Add(b Block) {
	g.blocks[key{module: b.Module, off: b.Off, size: b.Size}] = struct{}{}
}

// Contains reports whether the block (by module+offset, any size) is
// covered.
func (g *Graph) Contains(module string, off uint64) bool {
	for k := range g.blocks {
		if k.module == module && k.off == off {
			return true
		}
	}
	return false
}

// Count returns the number of distinct blocks.
func (g *Graph) Count() int { return len(g.blocks) }

// Blocks lists the covered blocks sorted by (module, offset, size).
func (g *Graph) Blocks() []Block {
	out := make([]Block, 0, len(g.blocks))
	for k := range g.blocks {
		out = append(out, Block{Module: k.module, Off: k.off, Size: k.size})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Module != out[j].Module {
			return out[i].Module < out[j].Module
		}
		if out[i].Off != out[j].Off {
			return out[i].Off < out[j].Off
		}
		return out[i].Size < out[j].Size
	})
	return out
}

// Merge unions any number of graphs into a new one (merging multiple
// trace files of different wanted requests).
func Merge(graphs ...*Graph) *Graph {
	out := NewGraph()
	for _, g := range graphs {
		if g == nil {
			continue
		}
		for k := range g.blocks {
			out.blocks[k] = struct{}{}
		}
		for name, base := range g.moduleBase {
			out.moduleBase[name] = base
		}
	}
	return out
}

// Diff returns the blocks in a that are absent from b:
// Diff(undesired, wanted) yields the feature blocks unique to the
// undesired requests; Diff(init, serving) yields the blocks that are
// dead after initialization.
func Diff(a, b *Graph) *Graph {
	out := NewGraph()
	for name, base := range a.moduleBase {
		out.moduleBase[name] = base
	}
	// Absence is judged by (module, off): a block re-observed with a
	// different size (e.g. truncated by a mid-block signal) still
	// counts as covered in b.
	bOffs := make(map[struct {
		m string
		o uint64
	}]struct{}, len(b.blocks))
	for k := range b.blocks {
		bOffs[struct {
			m string
			o uint64
		}{k.module, k.off}] = struct{}{}
	}
	for k := range a.blocks {
		if _, ok := bOffs[struct {
			m string
			o uint64
		}{k.module, k.off}]; !ok {
			out.blocks[k] = struct{}{}
		}
	}
	return out
}

// FilterModules keeps only blocks whose module name satisfies keep.
// DynaCut uses it to drop library blocks (libc.so et al.) from the
// feature diff (§3.1, Figure 4).
func (g *Graph) FilterModules(keep func(module string) bool) *Graph {
	out := NewGraph()
	for name, base := range g.moduleBase {
		out.moduleBase[name] = base
	}
	for k := range g.blocks {
		if keep(k.module) {
			out.blocks[k] = struct{}{}
		}
	}
	return out
}

// ModuleBase returns the recorded load base for a module name.
func (g *Graph) ModuleBase(module string) (uint64, bool) {
	b, ok := g.moduleBase[module]
	return b, ok
}

// AbsBlock is a block resolved back to absolute addresses.
type AbsBlock struct {
	Addr uint64
	Size uint64
}

// Absolute resolves the graph's blocks to absolute addresses using
// the recorded module bases. Blocks from modules without a recorded
// base (hand-built graphs) pass through with base 0, i.e. their
// offsets are treated as absolute.
func (g *Graph) Absolute() []AbsBlock {
	var out []AbsBlock
	for _, b := range g.Blocks() {
		base := g.moduleBase[b.Module] // 0 when unknown
		out = append(out, AbsBlock{Addr: base + b.Off, Size: b.Size})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}
