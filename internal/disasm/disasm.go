// Package disasm statically enumerates the basic blocks of a DELF
// binary — the role Angr plays in the paper's evaluation ("the number
// of total basic blocks of each binary is obtained using Angr"). It
// runs a recursive-descent traversal from the entry point and all
// function symbols, splitting blocks at branch targets, and reports
// the CFG's blocks with sizes.
package disasm

import (
	"sort"

	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/isa"
)

// Block is one static basic block.
type Block struct {
	Addr uint64
	Size uint64
	// Succs are the statically known successor block addresses
	// (direct branch targets and fall-throughs; indirect edges are
	// not resolved, as in any static CFG).
	Succs []uint64
}

// CFG is the static control-flow graph of one binary's executable
// sections.
type CFG struct {
	Blocks map[uint64]*Block
}

// Analyze builds the CFG of the executable sections (.text and .plt)
// of file.
func Analyze(file *delf.File) *CFG {
	cfg := &CFG{Blocks: map[uint64]*Block{}}

	regions := make(map[uint64][]byte)
	for _, sec := range file.Sections {
		if sec.Perm&delf.PermX != 0 && len(sec.Data) > 0 {
			regions[sec.Addr] = sec.Data
		}
	}
	read := func(addr uint64) ([]byte, bool) {
		for secAddr, data := range regions {
			if addr >= secAddr && addr < secAddr+uint64(len(data)) {
				return data[addr-secAddr:], true
			}
		}
		return nil, false
	}

	// Leaders: entry point, every function symbol in an executable
	// region, every direct branch target, every post-branch
	// fall-through.
	leaders := map[uint64]bool{}
	if file.Type == delf.TypeExec && file.Entry != 0 {
		leaders[file.Entry] = true
	}
	for _, sym := range file.Symbols {
		if sym.Kind == delf.SymFunc {
			if _, ok := read(sym.Value); ok {
				leaders[sym.Value] = true
			}
		}
	}

	// Pass 1: linear decode from each leader, discovering new leaders
	// (branch targets), iterating to fixpoint.
	work := make([]uint64, 0, len(leaders))
	for a := range leaders {
		work = append(work, a)
	}
	visited := map[uint64]bool{}
	for len(work) > 0 {
		addr := work[len(work)-1]
		work = work[:len(work)-1]
		if visited[addr] {
			continue
		}
		visited[addr] = true
		codeAt, ok := read(addr)
		if !ok {
			continue
		}
		off := 0
		for off < len(codeAt) {
			in, err := isa.Decode(codeAt[off:])
			if err != nil {
				break
			}
			iaddr := addr + uint64(off)
			if tgt, ok := in.Target(iaddr); ok {
				if _, mapped := read(tgt); mapped && !leaders[tgt] {
					leaders[tgt] = true
					work = append(work, tgt)
				}
			}
			off += in.Size
			if in.Op.IsBranch() {
				next := addr + uint64(off)
				if _, mapped := read(next); mapped {
					if in.Op.IsCond() || in.Op == isa.OpCALL || in.Op == isa.OpCALLr {
						if !leaders[next] {
							leaders[next] = true
							work = append(work, next)
						}
					}
				}
				break
			}
		}
	}

	// Pass 2: emit blocks from every leader to the next leader or
	// terminating branch.
	sorted := make([]uint64, 0, len(leaders))
	for a := range leaders {
		sorted = append(sorted, a)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	isLeader := leaders

	for _, start := range sorted {
		codeAt, ok := read(start)
		if !ok {
			continue
		}
		blk := &Block{Addr: start}
		off := 0
		for off < len(codeAt) {
			in, err := isa.Decode(codeAt[off:])
			if err != nil {
				break
			}
			iaddr := start + uint64(off)
			if iaddr != start && isLeader[iaddr] {
				// Block falls through into the next leader.
				blk.Succs = append(blk.Succs, iaddr)
				break
			}
			off += in.Size
			if in.Op.IsBranch() {
				if tgt, ok := in.Target(iaddr); ok {
					blk.Succs = append(blk.Succs, tgt)
				}
				next := start + uint64(off)
				if in.Op.IsCond() || in.Op == isa.OpCALL || in.Op == isa.OpCALLr {
					if _, mapped := read(next); mapped {
						blk.Succs = append(blk.Succs, next)
					}
				}
				break
			}
		}
		blk.Size = uint64(off)
		if blk.Size > 0 {
			cfg.Blocks[start] = blk
		}
	}
	return cfg
}

// Count returns the number of static basic blocks (the "total BB #"
// row of Figure 9).
func (c *CFG) Count() int { return len(c.Blocks) }

// Sorted returns blocks in address order.
func (c *CFG) Sorted() []*Block {
	out := make([]*Block, 0, len(c.Blocks))
	for _, b := range c.Blocks {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// BlockAt returns the block starting at addr.
func (c *CFG) BlockAt(addr uint64) (*Block, bool) {
	b, ok := c.Blocks[addr]
	return b, ok
}
