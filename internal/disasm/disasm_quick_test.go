package disasm

import (
	"testing"
	"testing/quick"

	"github.com/dynacut/dynacut/internal/delf"
)

func fileFor(code []byte) *delf.File {
	return &delf.File{
		Type:  delf.TypeExec,
		Name:  "gen",
		Entry: 0x400000,
		Sections: []*delf.Section{{
			Name: delf.SecText, Addr: 0x400000, Size: uint64(len(code)),
			Perm: delf.PermR | delf.PermX, Data: code,
		}},
		Symbols: []delf.Symbol{{
			Name: "_start", Value: 0x400000, Size: uint64(len(code)),
			Kind: delf.SymFunc, Global: true,
		}},
	}
}

// Property: for generated programs, the CFG's blocks never overlap,
// stay within .text, and every direct successor is a block leader.
func TestQuickCFGInvariants(t *testing.T) {
	f := func(seed []byte) bool {
		if len(seed) == 0 {
			return true
		}
		if len(seed) > 200 {
			seed = seed[:200]
		}
		code := GenProgram(seed)
		cfg := Analyze(fileFor(code))
		if cfg.Count() == 0 {
			return false
		}
		blocks := cfg.Sorted()
		end := uint64(0x400000) + uint64(len(code))
		for i, b := range blocks {
			if b.Addr < 0x400000 || b.Addr+b.Size > end {
				return false
			}
			if i > 0 && blocks[i-1].Addr+blocks[i-1].Size > b.Addr {
				return false
			}
			for _, s := range b.Succs {
				if _, ok := cfg.BlockAt(s); !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: total block bytes never exceed the section size, and the
// entry block always exists.
func TestQuickCFGCoverage(t *testing.T) {
	f := func(seed []byte) bool {
		if len(seed) == 0 {
			return true
		}
		if len(seed) > 100 {
			seed = seed[:100]
		}
		code := GenProgram(seed)
		cfg := Analyze(fileFor(code))
		if blockBytes(cfg) > uint64(len(code)) {
			return false
		}
		_, ok := cfg.BlockAt(0x400000)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
