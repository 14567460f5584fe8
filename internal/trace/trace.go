// Package trace implements drcov-style code-coverage collection for
// guest processes: basic blocks are recorded as <BB addr, BB size>
// tuples against a module table, exactly the artifact DynaCut's
// differential analysis consumes. A "nudge" (the DynamoRIO
// communication mechanism the paper extends) snapshots the coverage
// collected so far — the initialization phase — and clears the cache
// so the remainder of the run yields the serving-phase coverage.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"github.com/dynacut/dynacut/internal/kernel"
)

// RawBlock is one executed basic block in absolute addresses.
type RawBlock struct {
	Addr uint64
	Size uint64
}

// ModuleInfo is one module-table row.
type ModuleInfo struct {
	ID   int
	Lo   uint64
	Hi   uint64
	Name string
}

// Log is one coverage log file (the drcov output equivalent).
type Log struct {
	Program string
	Phase   string
	Modules []ModuleInfo
	Blocks  []RawBlock // deduplicated, sorted by address
}

// Package errors.
var ErrBadLog = errors.New("trace: malformed coverage log")

// Collector gathers deduplicated basic blocks from a Machine; it
// implements kernel.Tracer. All traced processes contribute to one
// block set, matching drcov's per-program logs (the paper's trace
// collector merges multi-process coverage the same way).
type Collector struct {
	program string
	blocks  map[RawBlock]struct{}
	// memo is a direct-mapped cache of tuples already in blocks, so a
	// hot block's repeat executions skip the map insert. A slot is
	// trusted only for a nonzero address, so the zero value is empty.
	memo [memoSlots]RawBlock
	hits uint64
}

// memoSlots is the size of the collector's memo: a power of two, so
// the slot is the block address's low bits.
const memoSlots = 256

// NewCollector creates a collector for the named program.
func NewCollector(program string) *Collector {
	return &Collector{program: program, blocks: map[RawBlock]struct{}{}}
}

var _ kernel.Tracer = (*Collector)(nil)

// OnBlock records one executed basic block.
func (c *Collector) OnBlock(pid int, start, size uint64) {
	c.hits++
	b := RawBlock{Addr: start, Size: size}
	slot := &c.memo[start%memoSlots]
	if *slot == b && start != 0 {
		return
	}
	c.blocks[b] = struct{}{}
	*slot = b
}

// Reset clears the recorded coverage (the post-nudge cache clear).
func (c *Collector) Reset() {
	c.blocks = map[RawBlock]struct{}{}
	c.memo = [memoSlots]RawBlock{}
	c.hits = 0
}

// Snapshot produces a Log of the coverage collected so far, labelled
// with the given phase, against the given module table.
func (c *Collector) Snapshot(modules []kernel.Module, phase string) *Log {
	l := &Log{Program: c.program, Phase: phase}
	for i, m := range modules {
		l.Modules = append(l.Modules, ModuleInfo{ID: i, Lo: m.Lo, Hi: m.Hi, Name: m.Name})
	}
	l.Blocks = make([]RawBlock, 0, len(c.blocks))
	for b := range c.blocks {
		l.Blocks = append(l.Blocks, b)
	}
	sort.Slice(l.Blocks, func(i, j int) bool {
		if l.Blocks[i].Addr != l.Blocks[j].Addr {
			return l.Blocks[i].Addr < l.Blocks[j].Addr
		}
		return l.Blocks[i].Size < l.Blocks[j].Size
	})
	return l
}

// SnapshotAndReset is the nudge operation: dump then clear.
func (c *Collector) SnapshotAndReset(modules []kernel.Module, phase string) *Log {
	l := c.Snapshot(modules, phase)
	c.Reset()
	return l
}

// ModuleOf returns the module containing addr.
func (l *Log) ModuleOf(addr uint64) (ModuleInfo, bool) {
	for _, m := range l.Modules {
		if addr >= m.Lo && addr < m.Hi {
			return m, true
		}
	}
	return ModuleInfo{}, false
}

// WriteTo serializes the log in the drcov-like text format.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "DRCOV VERSION: 1\n")
	fmt.Fprintf(&b, "PROGRAM: %s\n", l.Program)
	fmt.Fprintf(&b, "PHASE: %s\n", l.Phase)
	fmt.Fprintf(&b, "MODULE TABLE: %d\n", len(l.Modules))
	for _, m := range l.Modules {
		fmt.Fprintf(&b, "%d, 0x%x, 0x%x, %s\n", m.ID, m.Lo, m.Hi, m.Name)
	}
	fmt.Fprintf(&b, "BB TABLE: %d bbs\n", len(l.Blocks))
	for _, blk := range l.Blocks {
		if m, ok := l.ModuleOf(blk.Addr); ok {
			fmt.Fprintf(&b, "module[%d]: 0x%x, %d\n", m.ID, blk.Addr-m.Lo, blk.Size)
		} else {
			fmt.Fprintf(&b, "module[-1]: 0x%x, %d\n", blk.Addr, blk.Size)
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Marshal serializes the log to bytes.
func (l *Log) Marshal() []byte {
	var sb strings.Builder
	if _, err := l.WriteTo(&sb); err != nil {
		return nil
	}
	return []byte(sb.String())
}

// Parse reads a log in the text format produced by WriteTo.
func Parse(r io.Reader) (*Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	l := &Log{}
	readLine := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", fmt.Errorf("%w: unexpected EOF", ErrBadLog)
		}
		return sc.Text(), nil
	}
	line, err := readLine()
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(line, "DRCOV VERSION:") {
		return nil, fmt.Errorf("%w: bad header %q", ErrBadLog, line)
	}
	if line, err = readLine(); err != nil {
		return nil, err
	}
	l.Program = strings.TrimSpace(strings.TrimPrefix(line, "PROGRAM:"))
	if line, err = readLine(); err != nil {
		return nil, err
	}
	l.Phase = strings.TrimSpace(strings.TrimPrefix(line, "PHASE:"))
	if line, err = readLine(); err != nil {
		return nil, err
	}
	var nmod int
	if _, err := fmt.Sscanf(line, "MODULE TABLE: %d", &nmod); err != nil {
		return nil, fmt.Errorf("%w: %q", ErrBadLog, line)
	}
	for i := 0; i < nmod; i++ {
		if line, err = readLine(); err != nil {
			return nil, err
		}
		parts := strings.SplitN(line, ",", 4)
		if len(parts) != 4 {
			return nil, fmt.Errorf("%w: module row %q", ErrBadLog, line)
		}
		id, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
		lo, err2 := parseHex(parts[1])
		hi, err3 := parseHex(parts[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("%w: module row %q", ErrBadLog, line)
		}
		l.Modules = append(l.Modules, ModuleInfo{
			ID: id, Lo: lo, Hi: hi, Name: strings.TrimSpace(parts[3]),
		})
	}
	if line, err = readLine(); err != nil {
		return nil, err
	}
	var nbb int
	if _, err := fmt.Sscanf(line, "BB TABLE: %d bbs", &nbb); err != nil {
		return nil, fmt.Errorf("%w: %q", ErrBadLog, line)
	}
	for i := 0; i < nbb; i++ {
		if line, err = readLine(); err != nil {
			return nil, err
		}
		var modID int
		var off uint64
		var size uint64
		if _, err := fmt.Sscanf(line, "module[%d]: 0x%x, %d", &modID, &off, &size); err != nil {
			return nil, fmt.Errorf("%w: bb row %q", ErrBadLog, line)
		}
		addr := off
		if modID >= 0 {
			found := false
			for _, m := range l.Modules {
				if m.ID == modID {
					addr = m.Lo + off
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("%w: bb references unknown module %d", ErrBadLog, modID)
			}
		}
		l.Blocks = append(l.Blocks, RawBlock{Addr: addr, Size: size})
	}
	return l, nil
}

func parseHex(s string) (uint64, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "0x")
	return strconv.ParseUint(s, 16, 64)
}
