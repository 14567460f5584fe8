package kernel

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/dynacut/dynacut/internal/delf"
)

// PageSize is the granularity of mappings; UnmapPages-style policies
// operate on it.
const PageSize = 4096

// Memory errors. Guest-visible faults are converted to signals by the
// interpreter; these errors surface to Go callers (debugger view,
// checkpointing, rewriting).
var (
	ErrUnmapped   = errors.New("kernel: address not mapped")
	ErrPerm       = errors.New("kernel: permission denied")
	ErrVMAOverlap = errors.New("kernel: VMA overlap")
)

// VMA is one virtual memory area. Start/End are page aligned.
// File-backed executable VMAs are what DynaCut's patched CRIU must
// dump explicitly (vanilla CRIU dumps only anonymous memory).
type VMA struct {
	Start   uint64
	End     uint64
	Perm    delf.Perm
	Name    string // e.g. "prog:.text", "libc.so:.text", "[stack]"
	Backing string // originating file name; "" for anonymous
	// BackSection is the section within Backing this VMA maps, so a
	// restore without dumped code pages can re-materialize contents
	// from the "on-disk" binary (exactly why vanilla CRIU skips
	// file-backed pages, and why DynaCut must dump them).
	BackSection string
	Anon        bool
}

// Contains reports whether addr falls inside the VMA.
func (v VMA) Contains(addr uint64) bool { return addr >= v.Start && addr < v.End }

func (v VMA) String() string {
	return fmt.Sprintf("%#x-%#x %s %s", v.Start, v.End, v.Perm, v.Name)
}

// Memory is a paged address space with a VMA map, owned by one
// process. The zero value is not usable; use newMemory.
type Memory struct {
	pages map[uint64][]byte // page number -> PageSize bytes
	vmas  []VMA             // sorted by Start, non-overlapping

	// cow marks pages whose backing slice is shared with a clone
	// (CloneCoW) or an image set (SharePage, SetPage), and says with
	// what. A shared page is copied privately the first time it is
	// written, so clones, dumps and restores copy no page until someone
	// writes it. nil when nothing is shared.
	cow map[uint64]cowState

	// Block-cache state (bcache.go). bc is the per-address-space
	// basic-block translation cache, created lazily the first time the
	// machine executes this memory in a translating mode; gens is the
	// per-page mutation generation counter the cache validates against
	// (allocated with bc, so pure-interpreter runs pay nothing); and
	// layoutGen counts VMA-layout changes (Map, the only one), each
	// of which flushes the whole cache — instruction-fetch side effects
	// depend on the mapping, not just the bytes. A clone starts with an
	// empty cache and a zeroed generation space, which is trivially
	// consistent. A restored successor takes bc and gens from the dead
	// process it replaces (inherit), which then keeps neither; the
	// cache carries its own flush count, so layoutGen is not moved.
	bc        *blockCache
	gens      map[uint64]uint64
	layoutGen uint64

	// tlb is the software TLB in front of the VMA table and the page
	// map (see tlbEntry). Guest loads, stores and fetches inside one
	// page go through it; host accesses and the guest's page-crossing
	// and syscall-buffer accesses (ReadGuest, WriteGuest) do not. nil
	// until the first guest access, so a fresh, cloned or restored
	// address space pays nothing for it.
	tlb *[tlbSize]tlbEntry

	// wgen advances on every page mutation the block cache must see
	// (noteWrite, noteSilentWrite). A cached block remembers the wgen
	// it last validated at and skips its per-page generation compare
	// while wgen is unchanged.
	wgen uint64
}

// cowState says what a copy-on-write page may share its slice with.
// Only the two narrow states let a restored successor take a page
// over (Process.Adopt); every other way of sharing makes it cowShared.
type cowState uint8

const (
	// cowShared: clones or any number of image sets may hold the slice.
	cowShared cowState = iota
	// cowDumped: the page was private until a dump took it (SharePage),
	// so that dump's image set is the only other holder.
	cowDumped
	// cowRestored: a restore installed the slice from an image set
	// (SetPage), and no clone or dump of this memory has shared it
	// since.
	cowRestored
)

// tlbSize is the number of software-TLB entries: a power of two, so
// the slot is the page number's low bits.
const tlbSize = 32

// tlbEntry caches one page's translation for guest accesses: its
// backing and its VMA's permission. It is valid while tag ==
// layoutGen+1, so every Map invalidates the whole TLB
// and a zero entry is empty. Anything that replaces a page's backing
// (breakCoW, SetPage) drops the page's entry.
//
// write is the store fast path: set only by a guest store's slow path
// after writablePage ran, it promises the page is populated, private
// and covered by no cached block, so a store may go straight into the
// page. Whatever breaks one of those promises clears it: block.touch
// and blockCache.insert for their pages, CloneCoW for every entry,
// SharePage for its page (DESIGN.md §15).
type tlbEntry struct {
	pn    uint64
	page  *[PageSize]byte
	tag   uint64
	perm  delf.Perm
	write bool
}

func newMemory() *Memory {
	return &Memory{pages: map[uint64][]byte{}}
}

// CloneCoW returns a copy-on-write copy of the address space: both
// sides keep referencing the same page slices, and either side copies
// a page privately the first time it writes it. Cloning N guests from
// one booted template this way costs one copy of the pristine pages
// plus only the pages each clone later dirties.
func (m *Memory) CloneCoW() *Memory {
	c := &Memory{
		pages: make(map[uint64][]byte, len(m.pages)),
		vmas:  append([]VMA(nil), m.vmas...),
		cow:   make(map[uint64]cowState, len(m.pages)),
	}
	for pn, pg := range m.pages {
		c.pages[pn] = pg
		c.cow[pn] = cowShared
		m.markCoW(pn, cowShared)
	}
	m.tlbClearWrites() // m's pages are shared now
	return c
}

// breakCoW gives page pn private backing if its slice is shared with a
// clone. Must be called before any in-place mutation of the page.
func (m *Memory) breakCoW(pn uint64) {
	if m.cow == nil {
		return
	}
	if _, shared := m.cow[pn]; !shared {
		return
	}
	m.pages[pn] = append([]byte(nil), m.pages[pn]...)
	delete(m.cow, pn)
	m.tlbDrop(pn)
}

// markCoW marks page pn copy-on-write in state st.
func (m *Memory) markCoW(pn uint64, st cowState) {
	if m.cow == nil {
		m.cow = make(map[uint64]cowState, len(m.pages))
	}
	m.cow[pn] = st
}

// SharePage returns page pn's backing (nil if unpopulated) for the
// caller to keep as an immutable snapshot, marking the page
// copy-on-write: the dump path takes pages this way, without a copy.
// It records whether the page was private until now (cowDumped), the
// one state in which a restored successor may later take the page
// over (Process.Adopt); a page already shared becomes cowShared.
func (m *Memory) SharePage(pn uint64) []byte {
	pg, ok := m.pages[pn]
	if !ok {
		return nil
	}
	st := cowDumped
	if _, shared := m.cow[pn]; shared {
		st = cowShared
	}
	m.markCoW(pn, st)
	m.tlbClearWrite(pn)
	return pg
}

// SharedPageCount reports how many pages still share backing with a
// clone or an image set (diagnostics).
func (m *Memory) SharedPageCount() int { return len(m.cow) }

// noteWrite records a loud mutation of page pn: the page's generation
// advances and every cached block spanning the page is flushed
// immediately, severing any superblock that chained through it. All
// legitimate text-write channels funnel here — guest stores, live-
// patch INT3 stores, attestation repairs, restore-path SetPage,
// library injection — so a patched page can never execute stale
// cached code, not even later in the same scheduler round.
func (m *Memory) noteWrite(pn uint64) {
	m.wgen++
	if m.gens != nil {
		m.gens[pn]++
	}
	if m.bc != nil {
		m.bc.invalidatePage(pn)
	}
}

// noteSilentWrite advances pn's generation without flushing the cache:
// the FlipBits channel. A silent bit flip bypasses every loud
// bookkeeping path by design (no CoW break, no trap), but the
// translation cache would otherwise keep executing the pre-flip
// decode — diverging from the interpreter, which fetches live bytes.
// The generation bump makes the next dispatch of any block on the
// page revalidate and re-translate, keeping flip semantics
// byte-identical across execution modes.
func (m *Memory) noteSilentWrite(pn uint64) {
	m.wgen++
	if m.gens != nil {
		m.gens[pn]++
	}
}

// noteLayoutChange records a VMA-table change (Map) and flushes the
// entire block cache. A layout change can alter fetch behavior without
// touching any page contents — mapping fresh pages where a fetch
// previously stopped lets the fetch run on — so per-page generations
// are not enough; every cached block is invalidated.
func (m *Memory) noteLayoutChange() {
	m.layoutGen++
	if m.bc != nil {
		m.bc.flushAll()
	}
}

// VMAs returns a copy of the VMA table.
func (m *Memory) VMAs() []VMA {
	return append([]VMA(nil), m.vmas...)
}

// VMAAt returns the VMA containing addr.
func (m *Memory) VMAAt(addr uint64) (VMA, bool) {
	i := sort.Search(len(m.vmas), func(i int) bool { return m.vmas[i].End > addr })
	if i < len(m.vmas) && m.vmas[i].Contains(addr) {
		return m.vmas[i], true
	}
	return VMA{}, false
}

func pageAligned(v uint64) bool { return v%PageSize == 0 }

// Map installs new VMAs. Start and End must be page aligned and no
// range may overlap an existing VMA or another of vs. The table stays
// sorted by Start, so only the VMAs either side of a VMA's position can
// overlap it. An address space that maps nothing yet takes a sorted vs
// as its table, so a restore builds the table once: the caller must
// not touch vs afterwards. Otherwise the table grows once per call. On
// an error the VMAs before the bad one stay mapped.
func (m *Memory) Map(vs ...VMA) error {
	defer m.noteLayoutChange()
	if len(m.vmas) == 0 && sortedVMAs(vs) {
		m.vmas = vs
		return nil
	}
	m.vmas = slices.Grow(m.vmas, len(vs))
	for _, v := range vs {
		if err := m.mapOne(v); err != nil {
			return err
		}
	}
	return nil
}

// sortedVMAs reports whether vs is a valid VMA table as it stands:
// page-aligned, non-empty ranges in ascending, non-overlapping order.
func sortedVMAs(vs []VMA) bool {
	for i, v := range vs {
		if !pageAligned(v.Start) || !pageAligned(v.End) || v.End <= v.Start || i > 0 && vs[i-1].End > v.Start {
			return false
		}
	}
	return true
}

// mapOne inserts one VMA into the table (see Map).
func (m *Memory) mapOne(v VMA) error {
	if !pageAligned(v.Start) || !pageAligned(v.End) || v.End <= v.Start {
		return fmt.Errorf("kernel: bad VMA bounds %#x-%#x", v.Start, v.End)
	}
	i, _ := slices.BinarySearchFunc(m.vmas, v.Start, func(old VMA, start uint64) int {
		return cmp.Compare(old.Start, start)
	})
	for _, old := range m.vmas[max(i-1, 0):min(i+1, len(m.vmas))] {
		if v.Start < old.End && old.Start < v.End {
			return fmt.Errorf("%w: %s vs %s", ErrVMAOverlap, v, old)
		}
	}
	m.vmas = slices.Insert(m.vmas, i, v)
	return nil
}

// tlbLookup returns page pn's valid TLB entry, or nil.
func (m *Memory) tlbLookup(pn uint64) *tlbEntry {
	if m.tlb == nil {
		return nil
	}
	if e := &m.tlb[pn%tlbSize]; e.pn == pn && e.tag == m.layoutGen+1 {
		return e
	}
	return nil
}

// access returns the TLB entry of addr's page if the page is mapped
// with every permission in want, refilling the entry on a miss (which,
// like any guest access, populates the page). nil means the access
// faults.
func (m *Memory) access(addr uint64, want delf.Perm) *tlbEntry {
	pn := addr / PageSize
	if e := m.tlbLookup(pn); e != nil {
		if e.perm&want != want {
			return nil
		}
		return e
	}
	v, ok := m.VMAAt(addr)
	if !ok || v.Perm&want != want {
		return nil
	}
	return m.tlbFill(pn, v.Perm, m.populate(pn))
}

// tlbFill installs page pn's entry, allocating the TLB on first use.
func (m *Memory) tlbFill(pn uint64, perm delf.Perm, pg []byte) *tlbEntry {
	if m.tlb == nil {
		m.tlb = new([tlbSize]tlbEntry)
	}
	e := &m.tlb[pn%tlbSize]
	*e = tlbEntry{pn: pn, page: (*[PageSize]byte)(pg), tag: m.layoutGen + 1, perm: perm}
	return e
}

// tlbDrop forgets page pn's entry: its backing was replaced.
func (m *Memory) tlbDrop(pn uint64) {
	if e := m.tlbLookup(pn); e != nil {
		*e = tlbEntry{}
	}
}

// tlbClearWrite takes page pn off the store fast path.
func (m *Memory) tlbClearWrite(pn uint64) {
	if e := m.tlbLookup(pn); e != nil {
		e.write = false
	}
}

// tlbClearWrites takes every page off the store fast path.
func (m *Memory) tlbClearWrites() {
	if m.tlb != nil {
		for i := range m.tlb {
			m.tlb[i].write = false
		}
	}
}

// storePage returns addr's page ready for a guest store, or nil if the
// page is not mapped writable. An entry with its write bit set is the
// whole cost; otherwise writablePage does the store bookkeeping and the
// entry gets the bit.
func (m *Memory) storePage(addr uint64) *[PageSize]byte {
	pn := addr / PageSize
	if e := m.tlbLookup(pn); e != nil && e.write {
		return e.page
	}
	e := m.access(addr, delf.PermW)
	if e == nil {
		return nil
	}
	perm := e.perm
	pg := m.writablePage(pn) // breaking CoW drops e
	e = m.tlbFill(pn, perm, pg)
	e.write = true
	return e.page
}

// populate returns page pn's backing, allocating it zero-filled on
// first touch. The caller has checked that pn is mapped.
func (m *Memory) populate(pn uint64) []byte {
	pg, ok := m.pages[pn]
	if !ok {
		pg = make([]byte, PageSize)
		m.pages[pn] = pg
	}
	return pg
}

// writablePage readies mapped page pn for an in-place store:
// populated, private (CoW broken), and the write noted for the block
// cache. It returns the page's backing.
func (m *Memory) writablePage(pn uint64) []byte {
	m.populate(pn)
	m.breakCoW(pn)
	m.noteWrite(pn)
	return m.pages[pn]
}

// Read copies n bytes at addr without permission checks (the
// kernel/debugger view used by checkpointing and tracing).
func (m *Memory) Read(addr uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := m.read(addr, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (m *Memory) read(addr uint64, out []byte) error {
	for done := 0; done < len(out); {
		a := addr + uint64(done)
		if _, ok := m.VMAAt(a); !ok {
			return fmt.Errorf("%w: %#x", ErrUnmapped, a)
		}
		done += copy(out[done:], m.populate(a / PageSize)[a%PageSize:])
	}
	return nil
}

// Write stores b at addr without permission checks.
func (m *Memory) Write(addr uint64, b []byte) error {
	for done := 0; done < len(b); {
		a := addr + uint64(done)
		if _, ok := m.VMAAt(a); !ok {
			return fmt.Errorf("%w: %#x", ErrUnmapped, a)
		}
		done += copy(m.writablePage(a / PageSize)[a%PageSize:], b[done:])
	}
	return nil
}

// checkPerm verifies that every byte of [addr, addr+n) is mapped with
// the wanted permission.
func (m *Memory) checkPerm(addr uint64, n int, want delf.Perm) error {
	end := addr + uint64(n)
	for a := addr; a < end; {
		v, ok := m.VMAAt(a)
		if !ok {
			return fmt.Errorf("%w: %#x", ErrUnmapped, a)
		}
		if v.Perm&want != want {
			return fmt.Errorf("%w: %v access at %#x (%s)", ErrPerm, want, a, v)
		}
		a = v.End
	}
	return nil
}

// ReadGuest is a permission-checked read as performed by guest code.
func (m *Memory) ReadGuest(addr uint64, n int) ([]byte, error) {
	if err := m.checkPerm(addr, n, delf.PermR); err != nil {
		return nil, err
	}
	return m.Read(addr, n)
}

// WriteGuest is a permission-checked write as performed by guest code.
func (m *Memory) WriteGuest(addr uint64, b []byte) error {
	if err := m.checkPerm(addr, len(b), delf.PermW); err != nil {
		return err
	}
	return m.Write(addr, b)
}

// fetch reads up to len(buf) instruction bytes at addr into buf,
// requiring execute permission on the first byte (like a CPU fetch),
// and returns how many it read: fewer at a mapping boundary. Like any
// guest access it populates the pages it reads.
func (m *Memory) fetch(addr uint64, buf []byte) (int, error) {
	e := m.access(addr, delf.PermX)
	if e == nil {
		return 0, m.checkPerm(addr, 1, delf.PermX)
	}
	n := copy(buf, e.page[addr%PageSize:])
	if n < len(buf) {
		// The window spills into the next page, whatever its
		// permission, if it is mapped.
		if e := m.access(addr+uint64(n), 0); e != nil {
			n += copy(buf[n:], e.page[:])
		}
	}
	return n, nil
}

// ReadU64 reads a little-endian 64-bit word (guest semantics). A word
// inside one page is one TLB hit and no copy.
func (m *Memory) ReadU64(addr uint64) (uint64, error) {
	if off := addr % PageSize; off <= PageSize-8 {
		if e := m.access(addr, delf.PermR); e != nil {
			return binary.LittleEndian.Uint64(e.page[off:]), nil
		}
		return 0, m.checkPerm(addr, 8, delf.PermR)
	}
	var b [8]byte
	if err := m.checkPerm(addr, 8, delf.PermR); err != nil {
		return 0, err
	}
	if err := m.read(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 writes a little-endian 64-bit word (guest semantics), with
// the same one-page fast path as ReadU64.
func (m *Memory) WriteU64(addr uint64, v uint64) error {
	if off := addr % PageSize; off <= PageSize-8 {
		if pg := m.storePage(addr); pg != nil {
			binary.LittleEndian.PutUint64(pg[off:], v)
			return nil
		}
		return m.checkPerm(addr, 8, delf.PermW)
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return m.WriteGuest(addr, b[:])
}

// ReadU8 reads one byte (guest semantics).
func (m *Memory) ReadU8(addr uint64) (byte, error) {
	if e := m.access(addr, delf.PermR); e != nil {
		return e.page[addr%PageSize], nil
	}
	return 0, m.checkPerm(addr, 1, delf.PermR)
}

// WriteU8 writes one byte (guest semantics).
func (m *Memory) WriteU8(addr uint64, v byte) error {
	if pg := m.storePage(addr); pg != nil {
		pg[addr%PageSize] = v
		return nil
	}
	return m.checkPerm(addr, 1, delf.PermW)
}

// PopulatedPages returns the sorted page numbers that have backing
// storage allocated — the pagemap for checkpointing.
func (m *Memory) PopulatedPages() []uint64 {
	out := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		out = append(out, pn)
	}
	slices.Sort(out)
	return out
}

// PageDataUnsafe returns the internal page slice of pn by reference
// (nil if unpopulated) for a read at once, without marking the page
// shared: the caller must not write it or keep it (SharePage does).
func (m *Memory) PageDataUnsafe(pn uint64) []byte {
	return m.pages[pn]
}

// SetPage installs page contents (the restore path). The page keeps
// data, an image set's immutable page, by reference and copy-on-write
// (cowRestored), so a restore copies no page: the first store into a
// page still shared copies it. A committed rewrite hands the restored
// process the pages its dead predecessor held privately (Process.Adopt),
// so those take no copy at all.
func (m *Memory) SetPage(pn uint64, data []byte) error {
	if len(data) != PageSize {
		return fmt.Errorf("kernel: page data must be %d bytes, got %d", PageSize, len(data))
	}
	m.pages[pn] = data[:PageSize:PageSize]
	m.markCoW(pn, cowRestored)
	m.tlbDrop(pn)
	m.noteWrite(pn)
	return nil
}

// Adopt hands p, a restored process, the pages it shares with pred, the
// dead process it was restored in place of, through pred's last dump
// alone: each page a restore installed in p and no clone or dump of p
// has shared since, whose slice pred held privately until that dump.
// p then stores into those pages in place. It returns how many pages p
// adopted. The caller must hold every image set that still carries the
// dump's pages and drop them all: the pages stop being immutable.
func (p *Process) Adopt(pred *Process) int {
	if !pred.exited {
		return 0
	}
	return p.mem.adopt(pred.mem)
}

// adopt makes m the sole owner of every page a restore installed in m
// (cowRestored) whose slice old, the dead memory m was restored in
// place of, held privately until its last dump took it (cowDumped).
// old forgets those pages. It returns how many m adopted.
func (m *Memory) adopt(old *Memory) int {
	n := 0
	for pn, st := range m.cow {
		if st != cowRestored || old.cow[pn] != cowDumped || &old.pages[pn][0] != &m.pages[pn][0] {
			continue
		}
		delete(m.cow, pn)
		delete(old.cow, pn)
		delete(old.pages, pn)
		n++
	}
	return n
}
