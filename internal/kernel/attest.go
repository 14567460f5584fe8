package kernel

import (
	"crypto/sha256"
	"sort"

	"github.com/dynacut/dynacut/internal/delf"
)

// zeroPageDigest is the digest of an all-zero page: a mapped page that
// was never populated reads as zeros, so it hashes as zeros too.
var zeroPageDigest = sha256.Sum256(make([]byte, PageSize))

// HashPages returns the SHA-256 digest of each requested page. A page
// that is mapped but never populated hashes as a zero page; the caller
// is expected to pass page numbers it knows are mapped (ExecPages).
// Hashing never allocates backing or perturbs CoW state — it is
// a pure observation, safe to run at a scheduler-round boundary.
func (m *Memory) HashPages(pns []uint64) map[uint64][sha256.Size]byte {
	out := make(map[uint64][sha256.Size]byte, len(pns))
	for _, pn := range pns {
		if pg, ok := m.pages[pn]; ok {
			out[pn] = sha256.Sum256(pg)
		} else {
			out[pn] = zeroPageDigest
		}
	}
	return out
}

// ExecPages returns the sorted page numbers of every populated page
// inside an executable VMA — the text footprint an attestation oracle
// covers. Unpopulated pages are excluded: they have no bytes to
// corrupt and would only bloat the digest set.
func (m *Memory) ExecPages() []uint64 {
	var pns []uint64
	for _, v := range m.vmas {
		if v.Perm&delf.PermX == 0 {
			continue
		}
		for pn := v.Start / PageSize; pn < (v.End+PageSize-1)/PageSize; pn++ {
			if _, ok := m.pages[pn]; ok {
				pns = append(pns, pn)
			}
		}
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	return pns
}

// FlipBits silently XORs one byte of a populated page: the
// fault-injection primitive for modeling a cosmic-ray bit flip or a
// rogue DMA write. It deliberately bypasses every bookkeeping channel
// a loud write would touch — no trap fires and no cached block is
// flushed — making the flip invisible to everything except a hash of
// the live bytes (a dump carries it, as it carries every live page).
// CoW backing IS broken first: physical corruption is per-replica, it
// must never leak into siblings or dumps sharing the page.
// Returns false if the page is unpopulated (nothing to corrupt).
func (m *Memory) FlipBits(addr uint64, mask byte) bool {
	pn := addr / PageSize
	if _, ok := m.pages[pn]; !ok {
		return false
	}
	m.breakCoW(pn)
	m.pages[pn][addr%PageSize] ^= mask
	// The one bookkeeping channel a silent flip must touch: the text
	// generation counter. Without it the block cache would keep
	// replaying the pre-flip decode — executing code that no longer
	// exists in memory — while the interpreter fetches the corrupted
	// bytes (see noteSilentWrite).
	m.noteSilentWrite(pn)
	return true
}
