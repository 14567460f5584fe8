package core

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/dynacut/dynacut/internal/criu"
	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/kernel"
)

// Attestation is the expected-state oracle's public snapshot: a
// Merkle-style root over the per-text-page expected digests plus the
// applied-feature set. Two replicas that applied the same features to
// the same binary have the same root; a replica whose live text hashes
// to anything else has diverged, silently or not.
type Attestation struct {
	// Root commits to Pages and Features: the digest a fleet sweep
	// compares across replicas.
	Root [sha256.Size]byte
	// Pages maps each text page number to its expected content digest.
	// Pristine pages carry their PageStore blob hash by construction:
	// the expected digest IS the content-addressed store key.
	Pages map[uint64][sha256.Size]byte
	// Features is the sorted set of currently-disabled feature names.
	Features []string
}

// PageVerdict classifies one attestation mismatch.
type PageVerdict int

const (
	// PageClean: live content matches the expected digest.
	PageClean PageVerdict = iota
	// PageRepairable: live content equals a known prior version of the
	// page (e.g. pristine text after a patch was silently undone) — the
	// expected bytes can be re-patched in place from the PageStore.
	PageRepairable
	// PageForeign: live content matches no version this customizer has
	// ever committed. A bit flip, a rogue write — unknown bytes.
	PageForeign
)

func (v PageVerdict) String() string {
	switch v {
	case PageClean:
		return "clean"
	case PageRepairable:
		return "repairable"
	case PageForeign:
		return "foreign"
	}
	return fmt.Sprintf("PageVerdict(%d)", int(v))
}

// PageMismatch is one diverged (process, page) pair found by Attest.
type PageMismatch struct {
	PID     int
	Page    uint64
	Want    [sha256.Size]byte
	Got     [sha256.Size]byte
	Verdict PageVerdict
}

// AttestReport is the result of one live attestation sweep.
type AttestReport struct {
	// Checked counts (process, page) pairs hashed.
	Checked int
	// Procs is how many live processes were swept.
	Procs int
	// Root is the oracle's expected root; LiveRoot is the root computed
	// from the root process's live text. Equal iff the root process's
	// text (and feature set) matches expectations exactly.
	Root     [sha256.Size]byte
	LiveRoot [sha256.Size]byte
	// Mismatches lists every diverged page, classified.
	Mismatches []PageMismatch
}

// Clean reports whether the sweep found no divergence.
func (r *AttestReport) Clean() bool { return len(r.Mismatches) == 0 }

// Foreign counts mismatches with unknown bytes.
func (r *AttestReport) Foreign() int {
	n := 0
	for _, m := range r.Mismatches {
		if m.Verdict == PageForeign {
			n++
		}
	}
	return n
}

// RepairStats reports the cost of one anti-entropy repair pass.
type RepairStats struct {
	// Repaired is how many pages were re-patched in place.
	Repaired int
	// Skipped counts foreign mismatches left alone (foreign=false).
	Skipped int
	// Rounds is how many scheduler rounds the quiesce loop ran. Repair
	// never kills or restores a process: downtime is zero by the same
	// construction as the live-patch fast path.
	Rounds int
}

// pageOracle is the expected state of one text page: the current
// expected digest, every prior expected digest (the version chain that
// decides repairable-vs-foreign), and the patched-byte deltas relative
// to an earlier version — captured at commit so a repair can rebuild
// the expected content from any surviving prior blob.
type pageOracle struct {
	digest  [sha256.Size]byte
	history [][sha256.Size]byte // prior expected digests, oldest first
	overlay []overlayRun        // live patched bytes intersecting the page
}

// overlayRun is one span of patched bytes (INT3 fills, redirect jumps)
// as committed, keyed by guest address.
type overlayRun struct {
	addr  uint64
	bytes []byte
}

// attestStore returns the content-addressed store backing the oracle,
// creating a private one on first use if the caller didn't share one
// (fleets share theirs so N replicas' text deposits dedup to one).
func (c *Customizer) attestStore() *criu.PageStore {
	if c.attStore == nil {
		c.attStore = criu.NewPageStore()
	}
	return c.attStore
}

// sealText resets the oracle and seals every text page of the root
// process: the expected state of a guest the customizer has not
// edited (New, RestoreImages).
func (c *Customizer) sealText() error {
	p, err := c.machine.Process(c.pid)
	if err != nil || p.Exited() {
		return ErrDead
	}
	c.oracle = map[uint64]*pageOracle{}
	return c.seal(p.Mem().ExecPages())
}

// seal makes the root process's live content of pages pns their
// expected state — the oracle's only seal path, called at every commit
// point with just the pages that commit changed. A populated page in
// an executable VMA is deposited into the store, whose content key is
// its digest; a changed digest pushes the old one onto the page's
// version history and the patched-byte overlay is re-captured. Any
// other page (unmapped, unpopulated, no longer executable) leaves the
// oracle.
func (c *Customizer) seal(pns []uint64) error {
	p, err := c.machine.Process(c.pid)
	if err != nil || p.Exited() {
		return ErrDead
	}
	mem := p.Mem()
	for _, pn := range pns {
		v, mapped := mem.VMAAt(pn * kernel.PageSize)
		pg := mem.PageDataUnsafe(pn)
		if !mapped || v.Perm&delf.PermX == 0 || pg == nil {
			delete(c.oracle, pn)
			continue
		}
		digest, err := c.attestStore().DepositPage(pg)
		if err != nil {
			return fmt.Errorf("core: sealing oracle page %#x: %w", pn, err)
		}
		po := c.oracle[pn]
		if po == nil {
			po = &pageOracle{}
			c.oracle[pn] = po
		} else if po.digest != digest && !digestIn(po.history, po.digest) {
			po.history = append(po.history, po.digest)
		}
		po.digest = digest
		po.overlay = c.overlayFor(mem, pn)
	}
	return nil
}

// committedPages returns the root process's pages whose expected state
// a commit of work (edited from the dumped set) moves: the pages the
// edit changed and, in verifier mode, the pages of every byte the
// in-guest verifier healed since the last adoption. The guest rewrote
// those between commits and the dump carried them into this one.
func (c *Customizer) committedPages(set, work *criu.ImageSet) ([]uint64, error) {
	pns := editedPages(set, work)
	if !c.opts.Verifier || c.handler == nil {
		return pns, nil
	}
	healed, err := c.FalseRemovals()
	return append(pns, healedPages(healed)...), err
}

// healedPages returns the pages holding addrs, each the address of a
// byte the in-guest verifier restored.
func healedPages(addrs []uint64) []uint64 {
	spans := make([]blockSpan, len(addrs))
	for i, a := range addrs {
		spans[i] = blockSpan{lo: a, hi: a + 1}
	}
	return spanPages(spans)
}

// editedPages returns the pages at which an edit changed the root
// process's image: pages whose contents differ between the dumped set
// and the edited work set (compared byte for byte, not hashed), and
// pages only one of the two has. These are the only pages a committed
// rewrite changes in the root's live memory. Both page tables are
// sorted, so one merge walk compares them; a page the edit left alone
// is still the dumped slice, which bytes.Equal settles without reading
// it.
func editedPages(set, work *criu.ImageSet) []uint64 {
	pid := set.PIDs[0]
	a, b := set.Procs[pid], work.Procs[pid]
	apns, bpns := a.PageMap.PageNumbers, b.PageMap.PageNumbers
	var pns []uint64
	i, j := 0, 0
	for i < len(apns) || j < len(bpns) {
		switch {
		case j == len(bpns) || (i < len(apns) && apns[i] < bpns[j]):
			pns = append(pns, apns[i])
			i++
		case i == len(apns) || bpns[j] < apns[i]:
			pns = append(pns, bpns[j])
			j++
		default:
			if !bytes.Equal(a.Pages[i], b.Pages[j]) {
				pns = append(pns, apns[i])
			}
			i++
			j++
		}
	}
	return pns
}

func digestIn(hs [][sha256.Size]byte, d [sha256.Size]byte) bool {
	for _, h := range hs {
		if h == d {
			return true
		}
	}
	return false
}

// overlayFor captures the currently-patched bytes intersecting page pn
// — every saved-block span read back from live memory. Together with a
// prior version's blob this reconstructs the expected content when the
// store has lost the expected blob itself.
func (c *Customizer) overlayFor(mem *kernel.Memory, pn uint64) []overlayRun {
	lo, hi := pn*kernel.PageSize, (pn+1)*kernel.PageSize
	var runs []overlayRun
	for addr, orig := range c.saved {
		if addr+uint64(len(orig)) <= lo || addr >= hi {
			continue
		}
		cur, err := mem.Read(addr, len(orig))
		if err != nil {
			continue
		}
		runs = append(runs, overlayRun{addr: addr, bytes: cur})
	}
	slices.SortFunc(runs, func(a, b overlayRun) int { return cmp.Compare(a.addr, b.addr) })
	return runs
}

// oraclePageNumbers returns the oracle's page set, sorted.
func (c *Customizer) oraclePageNumbers() []uint64 { return sortedKeys(c.oracle) }

// features returns the sorted applied-feature set.
func (c *Customizer) features() []string { return sortedKeys(c.disabled) }

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// attRoot folds per-page digests and the feature set into one
// Merkle-style root: each (page, digest) pair is hashed into a leaf,
// the leaves are folded in page order, and the feature-set hash is the
// final leaf. Page order is canonical, so equal state ⇒ equal root.
func attRoot(pages map[uint64][sha256.Size]byte, features []string) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	for _, pn := range sortedKeys(pages) {
		d := pages[pn]
		binary.LittleEndian.PutUint64(buf[:], pn)
		leaf := sha256.Sum256(append(buf[:], d[:]...))
		h.Write(leaf[:])
	}
	fh := sha256.New()
	for _, f := range features {
		fh.Write([]byte(f))
		fh.Write([]byte{0})
	}
	h.Write(fh.Sum(nil))
	var root [sha256.Size]byte
	h.Sum(root[:0])
	return root
}

// Attestation returns the expected-state oracle: the per-page expected
// digests, the applied-feature set, and the root committing to both.
// It never reads live guest memory — this is what the state SHOULD be.
func (c *Customizer) Attestation() Attestation {
	pages := make(map[uint64][sha256.Size]byte, len(c.oracle))
	for pn, po := range c.oracle {
		pages[pn] = po.digest
	}
	fs := c.features()
	return Attestation{Root: attRoot(pages, fs), Pages: pages, Features: fs}
}

// LiveRoot hashes the root process's live text pages and returns the
// attestation root they produce — the cheap divergence probe a fleet
// sweep collects from every replica before deciding whether to pay for
// a full Attest. It consults the kernel.text.bitflip fault site first;
// TextRoot is the same hash without it.
func (c *Customizer) LiveRoot() ([sha256.Size]byte, error) {
	c.injectBitflip()
	return c.TextRoot()
}

// TextRoot hashes the root process's live text pages into an
// attestation root, with no fault site consulted. It equals
// Attestation().Root exactly when the live text is the expected text,
// so it tells which code version a process is running from the code
// itself — the check a resumed rollout controller classifies torn
// steps by.
func (c *Customizer) TextRoot() ([sha256.Size]byte, error) {
	p, err := c.machine.Process(c.pid)
	if err != nil || p.Exited() {
		return [sha256.Size]byte{}, ErrDead
	}
	return attRoot(p.Mem().HashPages(c.oraclePageNumbers()), c.features()), nil
}

// injectBitflip consults the silent text-corruption fault site. When
// armed, one bit of one live text page is flipped — no error, no trap;
// the flip is observable only by hashing — and the sweep
// continues as if nothing happened. The page and offset derive from
// the virtual clock, so a given (seed, schedule) corrupts the same
// byte every run.
func (c *Customizer) injectBitflip() {
	if len(c.oracle) == 0 {
		return
	}
	if ferr := c.machine.Fault(faultinject.SiteTextBitflip, c.pid); ferr == nil {
		return
	}
	p, err := c.machine.Process(c.pid)
	if err != nil || p.Exited() {
		return
	}
	pns := c.oraclePageNumbers()
	clock := c.machine.Clock()
	pn := pns[int(clock%uint64(len(pns)))]
	off := (clock*2654435761 + 12345) % kernel.PageSize
	if p.Mem().FlipBits(pn*kernel.PageSize+off, 0x80) {
		c.point("attest.bitflip", int64(pn))
	}
}

// Attest runs one live attestation sweep: every live target process's
// text pages are hashed and compared against the oracle, and each
// mismatch is classified repairable (content equals a known prior
// version in the chain) or foreign (unknown bytes). The sweep runs
// host-side between scheduler rounds — the same boundary the
// live-patch quiesce machinery establishes — so a page is never hashed
// mid-patch.
func (c *Customizer) Attest() (*AttestReport, error) {
	end := c.span("attest", 0)
	c.injectBitflip()
	targets := c.liveTargets()
	if len(targets) == 0 {
		end(ErrDead)
		return nil, ErrDead
	}
	pns := c.oraclePageNumbers()
	pages := make(map[uint64][sha256.Size]byte, len(c.oracle))
	for pn, po := range c.oracle {
		pages[pn] = po.digest
	}
	fs := c.features()
	rep := &AttestReport{Procs: len(targets), Root: attRoot(pages, fs)}
	for _, p := range targets {
		mem := p.Mem()
		check := make([]uint64, 0, len(pns))
		for _, pn := range pns {
			if _, ok := mem.VMAAt(pn * kernel.PageSize); ok {
				check = append(check, pn)
			}
		}
		live := mem.HashPages(check)
		for _, pn := range check {
			rep.Checked++
			want := c.oracle[pn].digest
			got := live[pn]
			if got == want {
				continue
			}
			verdict := PageForeign
			if digestIn(c.oracle[pn].history, got) {
				verdict = PageRepairable
			}
			rep.Mismatches = append(rep.Mismatches, PageMismatch{
				PID: p.PID(), Page: pn, Want: want, Got: got, Verdict: verdict,
			})
		}
		if p.PID() == c.pid {
			rep.LiveRoot = attRoot(live, fs)
		}
	}
	c.point("attest.pages", int64(rep.Checked))
	if n := len(rep.Mismatches); n > 0 {
		c.point("attest.mismatch", int64(n))
	}
	end(nil)
	return rep, nil
}

// Repair re-patches diverged pages in place from the content-addressed
// store: materialize the expected blob (or rebuild it from a prior
// version plus the recorded patched-byte deltas), quiesce like the
// live-patch fast path, write, verify the digest, commit. The guest is
// never killed or restored — zero downtime — and any failure unwinds
// every byte already written, same discipline as DisableBlocksLive.
// Foreign pages are repaired only when foreign is true (the supervisor
// scrub rung and the fleet repair ladder pass true; a cautious caller
// can restrict itself to known-prior-version pages).
//
// Repair is all-or-nothing: on error no page keeps repaired bytes.
func (c *Customizer) Repair(rep *AttestReport, foreign bool) (RepairStats, error) {
	var rs RepairStats
	if rep == nil || len(rep.Mismatches) == 0 {
		return rs, nil
	}
	end := c.span("attest.repair", 0)
	var fix []PageMismatch
	for _, mm := range rep.Mismatches {
		if mm.Verdict == PageForeign && !foreign {
			rs.Skipped++
			continue
		}
		fix = append(fix, mm)
	}
	if len(fix) == 0 {
		end(nil)
		return rs, nil
	}

	targets := c.liveTargets()
	if len(targets) == 0 {
		end(ErrDead)
		return rs, ErrDead
	}
	byPID := make(map[int]*kernel.Process, len(targets))
	for _, p := range targets {
		byPID[p.PID()] = p
	}

	// Source every expected blob up front and diff it against the live
	// page: only the diverged byte runs actually mutate (the rest of
	// the page is rewritten with identical values), so those runs — not
	// the whole page — are what the quiesce must clear. A whole-page
	// span would deadlock on any guest idling elsewhere in the page.
	blobs := make([][]byte, len(fix))
	var spans []blockSpan
	for i, mm := range fix {
		p := byPID[mm.PID]
		if p == nil || p.Exited() {
			err := fmt.Errorf("core: repair target pid %d gone", mm.PID)
			end(err)
			return rs, err
		}
		blob, err := c.expectedBlob(mm.Page, mm.Want)
		if err != nil {
			end(err)
			return rs, err
		}
		blobs[i] = blob
		lo := mm.Page * kernel.PageSize
		live, err := p.Mem().Read(lo, kernel.PageSize)
		if err != nil {
			end(err)
			return rs, err
		}
		for j := 0; j < kernel.PageSize; {
			if live[j] == blob[j] {
				j++
				continue
			}
			k := j
			for k < kernel.PageSize && live[k] != blob[k] {
				k++
			}
			spans = append(spans, blockSpan{lo: lo + uint64(j), hi: lo + uint64(k)})
			j = k
		}
	}

	// Quiesce: no target may be executing (or returning into) a byte
	// run about to change — the live-patch discipline.
	targets, rounds, err := c.quiesce(spans, "page under repair")
	rs.Rounds = rounds
	if err != nil {
		if !errors.Is(err, ErrDead) {
			err = fmt.Errorf("core: repair %w", err)
		}
		end(err)
		return rs, err
	}

	// Forks during quiesce can add processes; re-key the live set.
	byPID = make(map[int]*kernel.Process, len(targets))
	for _, p := range targets {
		byPID[p.PID()] = p
	}
	var undo undoLog
	fail := func(err error) (RepairStats, error) {
		undo.unwind()
		rs.Repaired = 0
		end(err)
		return rs, err
	}
	for i, mm := range fix {
		p := byPID[mm.PID]
		if p == nil || p.Exited() {
			return fail(fmt.Errorf("core: repair target pid %d gone", mm.PID))
		}
		if ferr := c.machine.Fault(faultinject.SiteAttestRepair, mm.PID); ferr != nil {
			return fail(fmt.Errorf("core: repairing page %#x: %w", mm.Page, ferr))
		}
		mem := p.Mem()
		if _, err := undo.write(mem, mm.Page*kernel.PageSize, blobs[i]); err != nil {
			return fail(fmt.Errorf("core: repairing page %#x: %w", mm.Page, err))
		}
		if got := mem.HashPages([]uint64{mm.Page})[mm.Page]; got != mm.Want {
			return fail(fmt.Errorf("core: page %#x still diverged after repair", mm.Page))
		}
		rs.Repaired++
		c.point("attest.repair.page", int64(mm.Page))
	}
	end(nil)
	return rs, nil
}

// Scrub attests the live text and, if any page diverged, repairs every
// mismatch in place (foreign ones included) and attests again. It
// returns the last report, clean on success, and the repair's stats:
// Repaired is zero exactly when the first attestation was already
// clean. A failed repair, or text still diverged after it, is an error.
func (c *Customizer) Scrub() (*AttestReport, RepairStats, error) {
	rep, err := c.Attest()
	if err != nil || rep.Clean() {
		return rep, RepairStats{}, err
	}
	rs, err := c.Repair(rep, true)
	if err != nil {
		return nil, rs, err
	}
	rep, err = c.Attest()
	if err == nil && !rep.Clean() {
		err = fmt.Errorf("core: text still diverged after repair (%d mismatches)", len(rep.Mismatches))
	}
	if err != nil {
		return nil, rs, err
	}
	return rep, rs, nil
}

// expectedBlob sources the expected content of a page: first the store
// blob keyed by the expected digest itself, then — if the store lost
// or rotted that blob — any surviving prior version re-overlaid with
// the recorded patched bytes. Every candidate is digest-verified.
func (c *Customizer) expectedBlob(pn uint64, want [sha256.Size]byte) ([]byte, error) {
	store := c.attestStore()
	if blob, err := store.PageBlob(want); err == nil {
		return blob, nil
	}
	po := c.oracle[pn]
	if po == nil {
		return nil, fmt.Errorf("core: page %#x not in oracle", pn)
	}
	lo := pn * kernel.PageSize
	for i := len(po.history) - 1; i >= 0; i-- {
		blob, err := store.PageBlob(po.history[i])
		if err != nil {
			continue
		}
		cand := append([]byte(nil), blob...)
		for _, run := range po.overlay {
			for j, b := range run.bytes {
				if a := run.addr + uint64(j); a >= lo && a < lo+kernel.PageSize {
					cand[a-lo] = b
				}
			}
		}
		if sha256.Sum256(cand) == want {
			return cand, nil
		}
	}
	return nil, fmt.Errorf("core: no source blob for page %#x digest %x", pn, want[:8])
}
