package kernel

// The basic-block translation cache: the kernel's default execution
// engine. The interpreter (exec.go) fetches and decodes every
// instruction on every execution; the translating engine decodes each
// basic block once — on its first execution — and replays the
// pre-decoded instruction vector afterwards, skipping the dominant
// per-instruction fetch/decode cost (a permission check, a page
// lookup, a copy and a decode, per instruction, per execution).
//
// Correctness is structural, not re-derived: translation IS the first
// interpreted execution. The recorder runs the ordinary
// fetch→decode→exec1 path and merely remembers what it decoded, so
// every side effect of a first execution — pages populated by the
// fetch window, tick charging, trap ordering — is
// byte-identical to the interpreter by construction. Replay runs the
// same exec1 semantic core on the remembered decodes. The only new
// failure class the cache introduces is staleness — executing a
// decode whose underlying bytes have since changed — and that is what
// the invalidation protocol (below) and the lockstep oracle
// (lockstep.go) exist to kill.
//
// Block formation: a block begins at the dispatch address and ends at
// the first control transfer (conditional or indirect jump, call,
// return), trap (INT3, HLT), or syscall — except a direct
// unconditional JMP, which the recorder follows, chaining the
// straight-line runs on both sides into one superblock (bounded by
// maxBlockInsts, and never following a jump back into the block being
// recorded, so loops are not unrolled). A block may also end early at
// a scheduler-slice boundary or at an instruction whose execution
// faulted; both simply produce a shorter cached block.
//
// Invalidation protocol (the proof obligations are spelled out in
// DESIGN.md §15):
//
//  1. Loud writes — guest stores, live-patch INT3 stores, attestation
//     repairs, restore-path SetPage, library injection — advance the
//     page's generation counter AND immediately evict every cached
//     block whose fetch window touched the page (Memory.noteWrite).
//     Eviction clears the block's valid flag, which the replay loop
//     checks after every instruction: a store into the page of the
//     very block being replayed stops the replay before the next
//     stale instruction, and a superblock chained through a flushed
//     page is severed mid-flight.
//  2. Silent writes — Memory.FlipBits, the bit-rot fault channel —
//     advance the generation only (no eviction). Every
//     dispatch validates the block's recorded generations against the
//     live counters, so the next entry to the page re-translates and
//     executes the flipped bytes exactly as the interpreter would.
//  3. Layout changes — Map is the only one — flush the entire cache:
//     fetch side effects depend on the VMA table (permission checks,
//     where an over-fetch window stops, which pages a fetch can
//     populate), not just on page contents.
//  4. Succession. A restore that replaces a killed process hands the
//     dead process's cache to its successor (Process.Succeed): moved,
//     not copied, and checked page by page, not block by block. The
//     handoff is refused unless the two VMA tables are equal, so fetch
//     permissions and over-fetch windows are unchanged. Then a page
//     the successor has not populated drops its blocks (a recording
//     would populate it), a page whose bytes changed drops exactly the
//     blocks whose instruction bytes overlap a change, and every other
//     block is kept: it is what a recording would produce, and its
//     fetches would have no side effect. Fork and CoW replica spawning
//     still start empty: their source is alive and keeps its cache.
//
// Three shortcuts keep dispatch and guest memory off Go maps, each
// with its own obligation:
//
//   - The software TLB (memory.go) serves guest loads, stores and
//     fetches. Its entries are tagged with the layout generation, so
//     step 3 empties it too, and breakCoW and SetPage drop the entry of
//     the page whose backing they replace.
//   - A TLB entry's write bit lets a store skip writablePage, and so
//     noteWrite. Only a store's slow path sets it, after noteWrite ran.
//     The obligation: no cached block covers a page whose write bit is
//     set. block.touch and insert clear the bit for their pages, so a
//     store into a cached block's page always takes the slow path and
//     step 1 holds. A store during a recording may set the bit on a
//     page the recording already touched; that store advanced the
//     page's generation past the recorded one, so the block is stale
//     from birth, and insert clears the bit anyway.
//   - Memory.wgen advances with every generation bump (steps 1 and 2).
//     A block remembers the wgen it last validated at (its recording
//     start, until its first dispatch) and skips step 2's per-page
//     compare while wgen is unchanged. The direct-mapped dispatch
//     table in front of the blocks map holds only cached blocks:
//     eviction and flushes clear their slots.

import (
	"bytes"
	"fmt"
	"slices"

	"github.com/dynacut/dynacut/internal/isa"
)

// ExecMode selects the machine's execution engine.
type ExecMode int

// Execution modes.
const (
	// ModeInterpret is the reference interpreter: fetch, decode and
	// execute one instruction at a time. The oracle every other mode
	// is measured against.
	ModeInterpret ExecMode = iota
	// ModeTranslate executes through the basic-block translation
	// cache: blocks are decoded once and replayed from the cache. The
	// engine NewMachine gives a machine.
	ModeTranslate
	// ModeLockstep executes through the cache but re-fetches and
	// re-decodes every cached instruction at each block dispatch,
	// comparing against the cached decode. A mismatch is a stale-cache
	// bug: it is recorded (CacheDivergences), the block is evicted,
	// and execution continues on the fresh decode — so the guest still
	// behaves like the interpreter while the harness collects proof of
	// the divergence. Interpreter-speed; built for the test oracle. In
	// the lockstep gate build (LockstepGate) it is the default engine
	// and a divergence panics instead.
	ModeLockstep
)

func (em ExecMode) String() string {
	switch em {
	case ModeInterpret:
		return "interpret"
	case ModeTranslate:
		return "translate"
	case ModeLockstep:
		return "lockstep"
	default:
		return fmt.Sprintf("ExecMode(%d)", int(em))
	}
}

// maxBlockInsts bounds one cached block (and therefore one superblock
// chain). Two scheduler slices: long enough that straight-line hot
// loops cache whole, small enough that a block's generation check
// stays a handful of page comparisons.
const maxBlockInsts = 128

// cachedInst is one pre-decoded instruction with its address — the
// operands are fully resolved at translation time, so replay never
// touches the encoding again.
type cachedInst struct {
	addr uint64
	in   isa.Inst
}

// block is one cached (super)block.
type block struct {
	entry uint64
	insts []cachedInst
	// pages are the sorted page numbers the recorder's fetch windows
	// touched (including over-fetch spill into a neighboring page);
	// gens are the generation counters observed at first touch, in the
	// same order. A dispatch-time mismatch against the live counters
	// means the bytes — or the fetch behavior — may have changed:
	// re-translate.
	pages  []uint64
	gens   []uint64
	layout uint64 // blockCache.layout at recording time
	// wgen is the Memory.wgen the block last validated at: its
	// recording start until its first dispatch. While wgen is
	// unchanged no page has changed, and dispatch skips the
	// generation compare.
	wgen  uint64
	valid bool // cleared by eviction; checked mid-replay

	// Inline backing for pages and gens: a block touches one page or
	// two, so only a superblock spanning more allocates.
	pageBuf, genBuf [2]uint64
}

// fresh reports whether every page the block was decoded from is
// still at its recorded generation.
func (b *block) fresh(mem *Memory) bool {
	for i, pn := range b.pages {
		if mem.gens[pn] != b.gens[i] {
			return false
		}
	}
	return true
}

// BlockCacheStats is the translation cache's counter set.
type BlockCacheStats struct {
	Blocks       int    // blocks currently cached
	CachedInsts  int    // pre-decoded instructions currently cached
	Hits         uint64 // dispatches served from the cache
	Misses       uint64 // dispatches that had to (re-)translate
	Translations uint64 // blocks recorded
	ChainedJumps uint64 // unconditional jumps chained into superblocks
	PageFlushes  uint64 // blocks evicted by loud page writes
	GenEvictions uint64 // stale blocks caught by the generation check
	LayoutFlush  uint64 // whole-cache flushes from VMA-layout changes
	Inherited    uint64 // blocks a successor kept at a handoff (Process.Succeed)
}

// Add folds o into s (aggregation across processes/replicas).
func (s *BlockCacheStats) Add(o BlockCacheStats) {
	s.Blocks += o.Blocks
	s.CachedInsts += o.CachedInsts
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Translations += o.Translations
	s.ChainedJumps += o.ChainedJumps
	s.PageFlushes += o.PageFlushes
	s.GenEvictions += o.GenEvictions
	s.LayoutFlush += o.LayoutFlush
	s.Inherited += o.Inherited
}

// dispatchSlots is the size of the direct-mapped dispatch table: a
// power of two, so the slot is the entry address's low bits.
const dispatchSlots = 256

// blockCache holds one address space's translated blocks, keyed by
// entry address, with a per-page index for eviction.
type blockCache struct {
	blocks map[uint64]*block
	byPage map[uint64][]*block
	// table is a direct-mapped cache of blocks, in front of blocks: a
	// dispatch whose slot holds its entry reads no map. Every block in
	// it is in blocks; evict and flushAll clear their slots.
	table [dispatchSlots]*block
	// layout counts whole-cache flushes: a block recorded under an
	// older count straddled a layout change and never validates. It
	// belongs to the cache, not the memory, so a successor's blocks
	// need no restamping.
	layout uint64
	stats  BlockCacheStats
	// scratch is the recorder's reusable instruction buffer, taken
	// (set to nil) while a recording uses it so that a recording
	// nested through a callback that re-enters Run gets its own.
	scratch []cachedInst
}

func newBlockCache() *blockCache {
	return &blockCache{
		blocks: map[uint64]*block{},
		byPage: map[uint64][]*block{},
	}
}

// blockCacheOf returns the memory's cache, creating it (and the
// generation space it validates against) on first use.
func (m *Memory) blockCacheOf() *blockCache {
	if m.bc == nil {
		m.bc = newBlockCache()
		if m.gens == nil {
			m.gens = map[uint64]uint64{}
		}
	}
	return m.bc
}

// lookup returns the valid, fresh cached block entered at addr, or
// nil after evicting whatever stale entry was found there.
func (bc *blockCache) lookup(mem *Memory, addr uint64) *block {
	slot := &bc.table[addr%dispatchSlots]
	b := *slot
	if b == nil || b.entry != addr {
		if b = bc.blocks[addr]; b == nil {
			bc.stats.Misses++
			return nil
		}
		*slot = b
	}
	if !b.valid || b.layout != bc.layout || (b.wgen != mem.wgen && !b.fresh(mem)) {
		bc.evict(b)
		bc.stats.GenEvictions++
		bc.stats.Misses++
		return nil
	}
	b.wgen = mem.wgen
	bc.stats.Hits++
	return b
}

// insert caches a freshly recorded block, replacing any previous
// entry at the same address. A store during the recording may have put
// one of the block's pages back on the TLB's store fast path; now that
// the block is cached, it comes off.
func (bc *blockCache) insert(mem *Memory, b *block) {
	if old := bc.blocks[b.entry]; old != nil {
		bc.evict(old)
	}
	bc.blocks[b.entry] = b
	bc.table[b.entry%dispatchSlots] = b
	for _, pn := range b.pages {
		bc.byPage[pn] = append(bc.byPage[pn], b)
		mem.tlbClearWrite(pn)
	}
	bc.stats.Translations++
}

// evict removes b from both indexes and clears its valid flag so any
// in-flight replay or chained superblock stops at the next
// instruction boundary.
func (bc *blockCache) evict(b *block) {
	b.valid = false
	if bc.blocks[b.entry] == b {
		delete(bc.blocks, b.entry)
	}
	if slot := &bc.table[b.entry%dispatchSlots]; *slot == b {
		*slot = nil
	}
	for _, pn := range b.pages {
		list := bc.byPage[pn]
		kept := list[:0]
		for _, o := range list {
			if o != b {
				kept = append(kept, o)
			}
		}
		if len(kept) == 0 {
			delete(bc.byPage, pn)
		} else {
			bc.byPage[pn] = kept
		}
	}
}

// invalidatePage evicts every block whose fetch window touched pn —
// the loud-write protocol step.
func (bc *blockCache) invalidatePage(pn uint64) {
	list := bc.byPage[pn]
	if len(list) == 0 {
		return
	}
	// Every block on the list goes, so drop the list first: evict then
	// finds nothing of pn's left to filter.
	delete(bc.byPage, pn)
	for _, b := range list {
		bc.evict(b)
		bc.stats.PageFlushes++
	}
}

// flushAll drops the entire cache — the layout-change protocol step.
func (bc *blockCache) flushAll() {
	for _, b := range bc.blocks {
		b.valid = false
	}
	clear(bc.blocks)
	clear(bc.byPage)
	clear(bc.table[:])
	bc.layout++
	bc.stats.LayoutFlush++
}

// Succeed hands pred's translation cache to p, the process a restore
// built in pred's place, and returns the number of blocks p keeps
// (rule 4). pred must be dead, so nothing else uses the cache, and p
// must not have run yet. p starts empty instead when the two VMA tables
// differ.
func (p *Process) Succeed(pred *Process) int {
	if !pred.exited {
		return 0
	}
	return p.mem.inherit(pred.mem)
}

// inherit moves old's cache and generation space to m, keeping the
// blocks that m's pages still validate, and returns how many it kept.
func (m *Memory) inherit(old *Memory) int {
	bc := old.bc
	if bc == nil || m.bc != nil || !slices.Equal(m.vmas, old.vmas) {
		return 0
	}
	m.bc, m.gens = bc, old.gens
	old.bc, old.gens = nil, nil
	for pn := range bc.byPage {
		cur, populated := m.pages[pn]
		prev, had := old.pages[pn]
		switch {
		case !populated || !had:
			bc.invalidatePage(pn)
		case &cur[0] == &prev[0] || bytes.Equal(cur, prev):
		default:
			bc.evictChanged(pn, cur, prev)
		}
	}
	// Every kept block revalidates its generations at its first
	// dispatch; none is stale, but none skips the check either.
	m.wgen = max(m.wgen, old.wgen) + 1
	m.tlbClearWrites()
	n := len(bc.blocks)
	bc.stats.Inherited += uint64(n)
	return n
}

// evictChanged evicts the blocks on page pn with an instruction whose
// bytes on the page differ between cur and prev, the page's two
// versions.
func (bc *blockCache) evictChanged(pn uint64, cur, prev []byte) {
	lo, hi := pn*PageSize, (pn+1)*PageSize
	var victims []*block
	for _, b := range bc.byPage[pn] {
		for i := range b.insts {
			ci := &b.insts[i]
			s, e := max(ci.addr, lo), min(ci.addr+uint64(ci.in.Size), hi)
			if s < e && !bytes.Equal(cur[s-lo:e-lo], prev[s-lo:e-lo]) {
				victims = append(victims, b)
				break
			}
		}
	}
	// Evict after the walk: evict filters the list being walked.
	for _, b := range victims {
		bc.evict(b)
	}
	bc.stats.PageFlushes += uint64(len(victims))
}

// BlockCacheStats returns a snapshot of this address space's
// translation-cache counters.
func (m *Memory) BlockCacheStats() BlockCacheStats {
	if m.bc == nil {
		return BlockCacheStats{}
	}
	s := m.bc.stats
	s.Blocks = len(m.bc.blocks)
	s.CachedInsts = 0
	for _, b := range m.bc.blocks {
		s.CachedInsts += len(b.insts)
	}
	return s
}

// BlockCacheStats aggregates the translation-cache counters across
// every process on the machine, including processes already removed
// from the table.
func (m *Machine) BlockCacheStats() BlockCacheStats {
	s := m.reapedCache
	for _, p := range m.procs {
		s.Add(p.mem.BlockCacheStats())
	}
	return s
}

// CacheDivergence records one lockstep-mode mismatch between a cached
// decode and a fresh fetch+decode of the same address — evidence of a
// stale cache (an invalidation protocol bug).
type CacheDivergence struct {
	PID    int
	Addr   uint64
	Detail string
}

func (d CacheDivergence) String() string {
	return fmt.Sprintf("pid %d @%#x: %s", d.PID, d.Addr, d.Detail)
}

// maxCacheDivs bounds the stored divergence reports; the total count
// keeps incrementing past the bound.
const maxCacheDivs = 64

// CacheDivergences returns the lockstep-mode divergences recorded so
// far (nil when none — the state every test asserts).
func (m *Machine) CacheDivergences() []CacheDivergence {
	return append([]CacheDivergence(nil), m.cacheDivs...)
}

// CacheDivergenceCount returns the total number of lockstep
// divergences observed, including any past the storage bound.
func (m *Machine) CacheDivergenceCount() uint64 { return m.cacheDivTotal }

func (m *Machine) recordCacheDiv(pid int, addr uint64, detail string) {
	d := CacheDivergence{PID: pid, Addr: addr, Detail: detail}
	if m.divPanic {
		panic("kernel: lockstep gate: block cache diverged: " + d.String())
	}
	m.cacheDivTotal++
	if len(m.cacheDivs) < maxCacheDivs {
		m.cacheDivs = append(m.cacheDivs, d)
	}
}

// verifyBlock is lockstep mode's dispatch-time oracle: re-fetch and
// re-decode every cached instruction and compare against the cache.
// On mismatch the divergence is recorded, the block evicted, and
// false returned so the caller re-records from live bytes — the guest
// never executes the stale decode.
func (m *Machine) verifyBlock(p *Process, b *block) bool {
	var buf [maxInstLen]byte
	for i := range b.insts {
		ci := &b.insts[i]
		var in isa.Inst
		n, err := p.mem.fetch(ci.addr, buf[:])
		if err == nil {
			in, err = isa.Decode(buf[:n])
		}
		if err != nil || in != ci.in {
			detail := fmt.Sprintf("cached %v, live decode %v", ci.in, in)
			if err != nil {
				detail = fmt.Sprintf("cached %v, live fetch/decode failed: %v", ci.in, err)
			}
			m.recordCacheDiv(p.pid, ci.addr, detail)
			p.mem.bc.evict(b)
			return false
		}
	}
	return true
}

// terminator reports whether op ends a basic block: any control
// transfer, trap, or syscall. (OpJMP is a terminator too — the
// recorder special-cases it for superblock chaining.)
func terminator(op isa.Opcode) bool {
	switch op {
	case isa.OpJMP, isa.OpJE, isa.OpJNE, isa.OpJL, isa.OpJG, isa.OpJLE, isa.OpJGE,
		isa.OpJMPr, isa.OpCALL, isa.OpCALLr, isa.OpRET,
		isa.OpSYS, isa.OpINT3, isa.OpHLT:
		return true
	}
	return false
}

// runSliceTranslated executes up to limit instructions of p through
// the block cache — the translating-engine counterpart of the
// interpreter's inner loop in runRound. It charges the virtual clock
// exactly as the interpreter does: one tick per step that the
// interpreter would have counted (retired instructions AND
// fetch/decode faults), nothing for a blocking syscall.
func (m *Machine) runSliceTranslated(p *Process, limit uint64) uint64 {
	if limit == 0 {
		return 0
	}
	bc := p.mem.blockCacheOf()
	var n uint64
	for n < limit && !p.exited {
		b := bc.lookup(p.mem, p.rip)
		if b != nil && m.execMode == ModeLockstep && !m.verifyBlock(p, b) {
			b = nil // evicted; fall through to re-record from live bytes
		}
		var charged uint64
		var blocked bool
		if b != nil {
			charged, blocked = m.replay(p, b, limit-n)
		} else {
			charged, blocked = m.record(p, bc, limit-n)
		}
		n += charged
		if blocked || charged == 0 {
			break
		}
	}
	return n
}

// replay executes a cached block through the shared exec1 core. It
// stops — without error, execution simply continues at the next
// dispatch — when the slice budget runs out, when control left the
// recorded straight line (a fault handler, a re-faulting
// instruction), when the block is evicted mid-flight (a store into
// its own page), or when a syscall would block (uncharged, exactly
// like the interpreter).
func (m *Machine) replay(p *Process, b *block, limit uint64) (charged uint64, blocked bool) {
	for i := range b.insts {
		if charged >= limit || p.exited {
			return charged, false
		}
		ci := &b.insts[i]
		if p.rip != ci.addr {
			return charged, false
		}
		if !m.exec1(p, ci.in, ci.addr) {
			return charged, true
		}
		charged++
		m.clock++
		if !b.valid {
			return charged, false
		}
	}
	return charged, false
}

// record is translation: one interpreted execution (the ordinary
// fetch→decode→exec1 path, with identical side effects and charging)
// that remembers its decodes and caches the resulting block. Each
// fetch window's pages are recorded with their generation at first
// touch, so a block whose bytes changed under it — even during its own
// recording — can never validate.
func (m *Machine) record(p *Process, bc *blockCache, limit uint64) (charged uint64, blocked bool) {
	b := &block{entry: p.rip, layout: bc.layout, wgen: p.mem.wgen, valid: true}
	b.pages, b.gens = b.pageBuf[:0], b.genBuf[:0]
	b.insts, bc.scratch = bc.scratch[:0], nil
	var buf [maxInstLen]byte
	for charged < limit && !p.exited && len(b.insts) < maxBlockInsts {
		addr := p.rip
		n, err := p.mem.fetch(addr, buf[:])
		if err != nil {
			m.fault(p, SIGSEGV, addr)
			charged++
			m.clock++
			break
		}
		b.touch(p.mem, addr, n)
		in, derr := isa.Decode(buf[:n])
		if derr != nil {
			m.fault(p, SIGSEGV, addr)
			charged++
			m.clock++
			break
		}
		if !m.exec1(p, in, addr) {
			// Blocking syscall: uncharged and unrecorded. The block
			// ends just before it; the syscall re-runs (and is
			// re-translated) when the process is next scheduled.
			blocked = true
			break
		}
		charged++
		m.clock++
		b.insts = append(b.insts, cachedInst{addr: addr, in: in})
		if in.Op == isa.OpJMP {
			// Superblock chaining: follow the unconditional direct
			// jump and keep recording — unless it loops back into
			// this very block, which would unroll the loop.
			if b.has(p.rip) {
				break
			}
			bc.stats.ChainedJumps++
			continue
		}
		if terminator(in.Op) {
			break
		}
		if p.rip != addr+uint64(in.Size) {
			// Execution faulted mid-straight-line and control went to
			// a handler (or the process died): end the block here.
			break
		}
	}
	// Cache an exact-size copy; the buffer goes back for the next
	// recording.
	scratch := b.insts
	if len(scratch) > 0 {
		b.insts = slices.Clone(scratch)
		bc.insert(p.mem, b)
	}
	bc.scratch = scratch
	return charged, blocked
}

// touch records the pages of the fetch window [addr, addr+n) that the
// block has not touched yet, each with its current generation, keeping
// pages sorted. A window spans one page or two. Each page comes off the
// TLB's store fast path, so the next store to it is noted.
func (b *block) touch(mem *Memory, addr uint64, n int) {
	for pn := addr / PageSize; pn <= (addr+uint64(n)-1)/PageSize; pn++ {
		mem.tlbClearWrite(pn)
		if k := len(b.pages); k > 0 && b.pages[k-1] == pn {
			continue // the common case: still on the last page
		}
		i, found := slices.BinarySearch(b.pages, pn)
		if !found {
			b.pages = slices.Insert(b.pages, i, pn)
			b.gens = slices.Insert(b.gens, i, mem.gens[pn])
		}
	}
}

// has reports whether the block recorded an instruction at addr.
func (b *block) has(addr uint64) bool {
	for i := range b.insts {
		if b.insts[i].addr == addr {
			return true
		}
	}
	return false
}
