// Package core implements DynaCut itself: dynamic and adaptive
// program customization by offline process rewriting. A Customizer
// wraps one running guest process (or process tree) and applies the
// checkpoint → rewrite → restore cycle of the paper's Figure 3:
// undesired basic blocks (identified by internal/coverage's
// trace-differencing) are blocked with one-byte INT3 patches, wiped,
// or unmapped; a signal-handler library is injected to redirect
// accidental accesses to the application's own error path; and every
// change is reversible at run time, so features can be re-enabled
// when the usage scenario changes.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"github.com/dynacut/dynacut/internal/coverage"
	"github.com/dynacut/dynacut/internal/crit"
	"github.com/dynacut/dynacut/internal/criu"
	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/kernel"
	"github.com/dynacut/dynacut/internal/obs"
)

// Policy selects how undesired code is removed (§3.2.2).
type Policy int

// Removal policies, from cheapest to strongest.
const (
	// PolicyBlockEntry replaces only the first byte of each block
	// with INT3: enough to stop the dispatcher from entering the
	// feature, constant-time to apply and to revert.
	PolicyBlockEntry Policy = iota + 1
	// PolicyWipeBlocks overwrites every byte of each block with
	// INT3, defeating mid-block jumps (ROP gadget reuse).
	PolicyWipeBlocks
	// PolicyUnmapPages removes whole pages from the address space;
	// only pages fully covered by undesired blocks are unmapped, the
	// remainder is wiped.
	PolicyUnmapPages
)

func (p Policy) String() string {
	switch p {
	case PolicyBlockEntry:
		return "block-entry"
	case PolicyWipeBlocks:
		return "wipe-blocks"
	case PolicyUnmapPages:
		return "unmap-pages"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Options configures a Customizer.
type Options struct {
	// Tree customizes the whole process tree (multi-process servers).
	Tree bool
	// RedirectTo, when nonzero, is the in-target address of the
	// application's error path (e.g. the "403 Forbidden" responder);
	// blocked-feature traps are redirected there instead of killing
	// the process.
	RedirectTo uint64
	// Verifier arms §3.2.3's validation mode: trapped blocks restore
	// themselves and log the address instead of being treated as
	// attacks, so over-eliminated blocks can be found.
	Verifier bool
	// TicksPerSecond, when nonzero, charges every rewrite's modelled
	// service interruption to the machine's virtual clock at this many
	// ticks per modelled second — the interruption window of Figure 8.
	// The model (downtimeNsPerProc, downtimeNsPerPage) counts work, not
	// host time, so the charge is identical on every host and under
	// -race. Every post-commit restore is charged, rollback restores
	// and retried attempts included.
	TicksPerSecond uint64
	// MaxAttempts bounds how many times Rewrite retries the whole
	// edit/restore cycle on failure before giving up (each failed
	// attempt is rolled back first). 0 or 1 = no retry.
	MaxAttempts int
	// HealthCheck, when non-nil, is run after every restore with the
	// new root PID, before the transaction commits; a non-nil error
	// rolls the guest back to the pre-edit images. Session wires a
	// canary request through this so server flows verify end-to-end
	// service.
	HealthCheck func(m *kernel.Machine, pid int) error
	// BeforeCommit, when non-nil, runs immediately before the commit
	// point of every attempt (killing the originals). A non-nil error
	// aborts the transaction with ErrAborted and the guest untouched —
	// the last moment an external controller (a halted fleet rollout)
	// can stop an in-flight rewrite without paying a rollback.
	BeforeCommit func(attempt int) error
	// LiveQuiesceRounds bounds how many scheduler rounds
	// DisableBlocksLive runs waiting for quiescence before falling
	// back to the checkpoint transaction (0 = DefaultQuiesceRounds).
	LiveQuiesceRounds int
	// Observer, when non-nil, receives a typed event for every rewrite
	// phase (checkpoint, validate, edit, kill, restore, health,
	// rollback, reseal) plus pipeline counters. New also installs it as
	// the machine's observer if the machine has none, so kernel, criu
	// and fault-injection telemetry land in the same sink. nil = zero
	// overhead: no events, no metrics, no allocations.
	Observer *obs.Observer
	// AttestStore, when non-nil, backs the attestation oracle's
	// expected-content deposits (attest.go). Fleets pass their shared
	// PageStore so N replicas' identical text pages dedup to one blob;
	// nil = a private store created on first use.
	AttestStore *criu.PageStore
}

// Stats reports the cost of one rewrite cycle, matching the segments
// of Figures 6 and 7 (checkpoint, code update, handler insertion,
// restore). With retries the editing and restore segments accumulate
// across attempts, so the total still reflects the real interruption.
type Stats struct {
	Checkpoint    time.Duration
	CodeUpdate    time.Duration
	InsertHandler time.Duration
	// Restore sums the criu.Restore calls past the commit point, each
	// attempt's and each rollback's.
	Restore     time.Duration
	HealthCheck time.Duration
	// Downtime is the measured service-interruption window: every
	// restore past the commit point, the attempt's and each rollback's,
	// adds the wall-clock time from killing the processes it replaces
	// until criu.Restore returned. The translation-cache handoff after
	// it is not downtime, and neither are the pre-commit segments
	// (checkpoint, edit, handler insertion, validation), which run while
	// the guest still serves. It is for reporting only: the virtual
	// clock is charged from the work-count model instead (see charge).
	Downtime time.Duration
	// ImageBytes estimates the pre-edit checkpoint's size,
	// ImageSet.TotalBytes of the dumped set: the whole page table plus
	// metadata. It is not a marshalled length.
	ImageBytes int
	// PagesDumped is the size of the pre-edit checkpoint's page table.
	// Every dump takes each page copy-on-write, so none is copied.
	PagesDumped int
	// PagesSkipped is always 0: no dump skips a page. It stays for
	// readers of the earlier per-layer counters.
	PagesSkipped  int
	BlocksPatched int
	PagesUnmapped int
	// Attempts is how many edit/restore cycles ran (1 = no retry).
	Attempts int
	// LivePatched reports the rewrite took the live-patch fast path:
	// the guest was never killed, Downtime is zero, and the text bytes
	// were written directly into the running VMAs between scheduler
	// rounds.
	LivePatched bool
	// FellBack reports a requested live patch that could not run (or
	// was unwound after an injected fault) and was applied through the
	// full checkpoint transaction instead; FallbackReason says why.
	FellBack       bool
	FallbackReason string
	// QuiesceRounds counts the scheduler rounds the live patcher ran
	// waiting for every RIP and saved return address to leave the
	// affected blocks (0 = the guest was already safe).
	QuiesceRounds int
	// RolledBack reports the transaction's final outcome: true when
	// the rewrite failed and the guest is running the restored
	// pre-edit images (its live connections intact). It is false both
	// on success and when an early failure — bad dump, failed edit,
	// invalid edited images — was caught before the guest was killed, in
	// which case the original processes were never touched.
	RolledBack bool
}

// Total returns the end-to-end rewrite cost, health probing included.
func (s Stats) Total() time.Duration {
	return s.Checkpoint + s.CodeUpdate + s.InsertHandler + s.Restore + s.HealthCheck
}

// Customizer errors.
var (
	ErrNotDisabled = errors.New("core: feature not currently disabled")
	ErrDead        = errors.New("core: target process has exited")
	// ErrRestoreFailed marks a restore that failed after the guest was
	// killed; it always travels with ErrRolledBack (or, if even the
	// rollback restore failed, ErrRollbackFailed).
	ErrRestoreFailed = errors.New("core: restore failed")
	// ErrRolledBack reports a rewrite that failed but recovered: the
	// pre-edit images were restored and the guest survived.
	ErrRolledBack = errors.New("core: rewrite failed, guest rolled back to pre-edit images")
	// ErrRollbackFailed is the unrecoverable case: the rewrite failed
	// after the commit point and restoring the pristine images failed
	// too, so the guest is gone.
	ErrRollbackFailed = errors.New("core: rollback failed, guest lost")
	// ErrAborted reports a rewrite stopped by Options.BeforeCommit
	// before the commit point: nothing was killed, the guest is
	// untouched and still running its pre-rewrite code.
	ErrAborted = errors.New("core: rewrite aborted before commit")
)

// healthBudget is the instruction budget of the built-in post-restore
// liveness probe: it fails if a restored process exits or dies on a
// signal within the budget.
const healthBudget = 20000

// Customizer dynamically customizes one guest program.
type Customizer struct {
	machine *kernel.Machine
	pid     int // current root PID (changes across restores)
	opts    Options

	handlerLib *delf.File
	books

	// disabled tracks currently-disabled block spans by feature name.
	disabled map[string][]coverage.AbsBlock

	// Expected-state oracle (attest.go): per-text-page expected digests
	// with version history; every commit point seals the pages it
	// changed. attStore is the content-addressed repair source — shared
	// with the fleet's store when Options.AttestStore is set.
	oracle   map[uint64]*pageOracle
	attStore *criu.PageStore

	// orphans are the dead processes of this tree that a failed
	// restore left in the process table; RestoreImages replaces them
	// with the rest, so their caches are handed on and they are reaped.
	orphans []int
}

type pageRange struct{ start, end uint64 }

// books is the customizer bookkeeping an edit closure mutates; a
// rewrite snapshots it so a failed transaction leaks nothing.
type books struct {
	handler *Handler
	// saved[addr] = original bytes, for re-enabling features.
	saved map[uint64][]byte
	// unmapped page ranges (cannot be re-enabled byte-wise).
	unmapped      []pageRange
	verifierCount int
}

// clone deep-copies b, saved bytes included: edits may mutate them in
// place.
func (b books) clone() books {
	saved := make(map[uint64][]byte, len(b.saved))
	for k, v := range b.saved {
		saved[k] = append([]byte(nil), v...)
	}
	b.saved = saved
	b.unmapped = append([]pageRange(nil), b.unmapped...)
	return b
}

// New creates a Customizer for the process rooted at pid.
func New(m *kernel.Machine, pid int, opts Options) (*Customizer, error) {
	lib, err := BuildHandlerLib()
	if err != nil {
		return nil, err
	}
	if opts.Observer != nil && m.Observer() == nil {
		m.SetObserver(opts.Observer)
	}
	c := &Customizer{
		machine:    m,
		pid:        pid,
		opts:       opts,
		handlerLib: lib,
		books:      books{saved: map[uint64][]byte{}},
		disabled:   map[string][]coverage.AbsBlock{},
		attStore:   opts.AttestStore,
	}
	// Seal the oracle on the pristine text so the first version in
	// every page's chain is the unmodified binary.
	if err := c.sealText(); err != nil {
		return nil, err
	}
	return c, nil
}

// span opens an observability span for one rewrite phase and returns
// its closer. With no observer configured both directions are no-ops
// (the returned closure is static, so the nil path does not allocate).
func (c *Customizer) span(name string, attempt int) func(err error) {
	o := c.opts.Observer
	if o == nil {
		return noopSpanEnd
	}
	o.PhaseStart(name, attempt)
	return func(err error) { o.PhaseEnd(name, attempt, err) }
}

func noopSpanEnd(error) {}

// point emits an instantaneous observability event if observing.
func (c *Customizer) point(name string, n int64) {
	if o := c.opts.Observer; o != nil {
		o.Point(name, n)
	}
}

// PID returns the current root process ID (it changes after each
// rewrite, since restore creates fresh processes).
func (c *Customizer) PID() int { return c.pid }

// Rewrite runs one full checkpoint → edit → restore cycle, applying
// edit to the frozen images. It is the paper's core primitive: all
// customization goes through it, and the target's live TCP
// connections survive.
//
// The cycle is transactional. The freshly dumped images are validated
// before anything is killed and then stay untouched as the rollback
// anchor: every attempt edits its own Clone of them. Failures before
// the commit point (handler injection, the edit itself, validation of
// the edited images) leave the original processes untouched. The
// commit point is killing the originals to free their ports; past it,
// a failed restore or a failed post-restore health check rolls the
// guest back to the pristine images, so it keeps serving with its
// live connections intact. Options.MaxAttempts > 1 retries the whole
// cycle after any rolled-back (or pre-commit) failure.
func (c *Customizer) Rewrite(edit func(ed *crit.Editor, pids []int) error) (Stats, error) {
	var stats Stats
	// The dumped set is the rollback anchor: every attempt edits a
	// clone of it, and a rollback restores it as is.
	set, took, err := c.dump()
	stats.Checkpoint = took
	if err != nil {
		return stats, err
	}
	stats.ImageBytes = set.TotalBytes()
	stats.PagesDumped = set.PagesDumped
	// Every restore past the commit point, edited or rollback, brings
	// back this one dump; each is charged its modelled cost.
	restores := uint64(0)
	defer func() { c.charge(restores, set) }()

	// Edit closures mutate customizer bookkeeping; snapshot it so every
	// attempt starts clean and a failed transaction leaks nothing.
	snap := c.books.clone()

	maxAttempts := c.opts.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	curPIDs := append([]int(nil), set.PIDs...) // the live guest's PIDs
	rolledBack := false                        // a rollback restore has run
	var lastErr error
	// rollback restores the pristine pre-edit images (the dumped set,
	// which no attempt edits) in place of preds after a post-commit
	// failure (cause); on success the attempt is recorded as failed
	// with lastErr = failed. It seals nothing: a failed attempt never
	// moves the oracle, and the restored set is the text it already
	// expects. If the rollback restore fails too, the guest is lost.
	rollback := func(attempt int, preds []int, cause, failed error) error {
		if o := c.opts.Observer; o != nil {
			o.Add("core.rollbacks", 1)
		}
		procs, err := c.replace(&stats, preds, set, "rollback", "", attempt)
		restores++
		if err != nil {
			return fmt.Errorf("%w: %v (while recovering from: %v)", ErrRollbackFailed, err, cause)
		}
		curPIDs = pidsOf(procs)
		c.pid = curPIDs[0]
		rolledBack = true
		lastErr = failed
		return nil
	}

	for attempt := 1; attempt <= maxAttempts; attempt++ {
		stats.Attempts = attempt
		c.books = snap.clone()

		work := set.Clone()
		ed := crit.NewEditor(work, c.machine)

		// Ensure the handler library is present in the image set:
		// injection survives re-dumps of restored procs (the library
		// VMAs were dumped), so only re-inject when absent.
		t1 := time.Now()
		endEdit := c.span("edit", attempt)
		err = c.ensureHandler(ed, work.PIDs)
		stats.InsertHandler += time.Since(t1)
		if err != nil {
			endEdit(err)
			lastErr = err
			continue // guest untouched; retry or give up below
		}

		t2 := time.Now()
		err = edit(ed, work.PIDs)
		stats.CodeUpdate += time.Since(t2)
		endEdit(err)
		if err != nil {
			lastErr = fmt.Errorf("rewrite: %w", err)
			continue // guest untouched
		}

		// The edited images must still describe a restorable process
		// tree — checked while the originals are alive.
		endVal := c.span("validate", attempt)
		err = work.Validate(c.machine)
		endVal(err)
		if err != nil {
			lastErr = fmt.Errorf("rewrite: %w", err)
			continue // guest untouched
		}

		// Last exit before the commit point: an external controller (a
		// fleet rollout that halted) can still abort with the guest
		// untouched. Bookkeeping is restored to the pre-rewrite snapshot
		// since ensureHandler/edit already mutated it this attempt.
		if c.opts.BeforeCommit != nil {
			if err := c.opts.BeforeCommit(attempt); err != nil {
				c.books = snap
				stats.RolledBack = rolledBack
				c.point("rewrite.abort", int64(attempt))
				return stats, fmt.Errorf("%w: %v", ErrAborted, err)
			}
		}

		// Commit point: kill the originals so their ports free up for
		// the restore. From here on, failure means rollback, and the
		// guest is down until a restore (of the edited images or, on
		// rollback, the pristine ones) completes — that window is the
		// measured Downtime.
		procs, err := c.replace(&stats, curPIDs, work, "restore", "", attempt)
		restores++
		if err != nil {
			// Restore is atomic: its partial procs are already gone.
			restoreErr := fmt.Errorf("%w (attempt %d): %w", ErrRestoreFailed, attempt, err)
			if rbErr := rollback(attempt, curPIDs, restoreErr, restoreErr); rbErr != nil {
				return stats, rbErr
			}
			continue
		}
		newRoot := procs[0].PID() // Restore returns the dump root first

		t4 := time.Now()
		endHealth := c.span("health", attempt)
		hcErr := c.healthCheck(newRoot, procs)
		endHealth(hcErr)
		stats.HealthCheck += time.Since(t4)
		if hcErr != nil {
			// Roll back in place of the unhealthy tree, which holds the
			// originals' caches; the guest is down again until the
			// rollback restore completes.
			failed := fmt.Errorf("health check (attempt %d): %w", attempt, hcErr)
			if rbErr := rollback(attempt, pidsOf(procs), hcErr, failed); rbErr != nil {
				return stats, rbErr
			}
			continue
		}

		// Committed.
		c.pid = newRoot
		stats.RolledBack = false
		c.point("rewrite.commit", int64(attempt))
		// Seal just the pages this commit changed (their old digests
		// join each page's version chain). Every other page was restored
		// from the dump as it was and keeps its expected digest, so a
		// silent flip the dump captured stays a mismatch.
		endReseal := c.span("reseal", attempt)
		pns, err := c.committedPages(set, work)
		if err == nil {
			err = c.seal(pns)
		}
		endReseal(err)
		if o := c.opts.Observer; o != nil {
			o.Add("core.commits", 1)
		}
		return stats, nil
	}

	// Every attempt failed. If the last failure was past the commit
	// point the guest is running the rolled-back pristine images;
	// otherwise it was never touched. Either way the bookkeeping must
	// match the pre-rewrite snapshot, not the dead attempt's edits.
	c.books = snap
	stats.RolledBack = rolledBack
	if rolledBack {
		return stats, fmt.Errorf("%w (after %d attempts): %w", ErrRolledBack, stats.Attempts, lastErr)
	}
	return stats, lastErr
}

// replace is the one teardown-and-restore: it kills preds children
// first (Kill does nothing to an exited process), passes site (when
// not empty) with attempt as its detail, restores set in their place,
// and adds the window from the kill until criu.Restore returned to
// st.Downtime and the fault check plus restore to st.Restore. On
// success each restored process takes its predecessor's translation
// cache — procs[i] replaces preds[i], both root first, and any pairing
// is sound since Succeed keeps only what the successor's layout and
// pages still validate — and only then are preds removed from the
// process table. A failed restore leaves nothing behind of its own,
// and leaves preds dead in the table as c.orphans, so the next replace
// can still hand their caches on. The spans are attempt's kill and
// phase.
func (c *Customizer) replace(st *Stats, preds []int, set *criu.ImageSet, phase, site string, attempt int) ([]*kernel.Process, error) {
	tKill := time.Now()
	endKill := c.span("kill", attempt)
	for i := len(preds) - 1; i >= 0; i-- {
		c.machine.Kill(preds[i])
	}
	endKill(nil)
	t := time.Now()
	endRestore := c.span(phase, attempt)
	var procs []*kernel.Process
	var err error
	if site != "" {
		err = c.machine.Fault(site, attempt)
	}
	if err == nil {
		procs, _, err = criu.Restore(c.machine, set)
	}
	endRestore(err)
	st.Restore += time.Since(t)
	st.Downtime += time.Since(tKill)
	if err != nil {
		c.orphans = preds
		return nil, err
	}
	for i, pid := range preds[:min(len(preds), len(procs))] {
		if pred, err := c.machine.Process(pid); err == nil {
			procs[i].Succeed(pred)
		}
	}
	// Removed only now: Remove counts a process's cache counters once
	// more, and an inherited cache carries them on.
	for _, pid := range preds {
		c.machine.Remove(pid)
	}
	c.orphans = nil
	return procs, nil
}

// pidsOf returns the PIDs of procs, in order.
func pidsOf(procs []*kernel.Process) []int {
	pids := make([]int, len(procs))
	for i, p := range procs {
		pids[i] = p.PID()
	}
	return pids
}

// healthCheck probes the freshly restored tree before the transaction
// commits: the guest runs for a bounded instruction budget, every
// restored process must still be alive afterwards, and the optional
// user probe (Options.HealthCheck — Session wires a canary request
// through it) must pass.
func (c *Customizer) healthCheck(root int, procs []*kernel.Process) error {
	if err := c.machine.Fault(faultinject.SiteHealth, root); err != nil {
		return err
	}
	c.machine.Run(healthBudget)
	for _, p := range procs {
		if p.Exited() {
			return fmt.Errorf("core: restored pid %d died within %d ticks of restore", p.PID(), healthBudget)
		}
	}
	if c.opts.HealthCheck != nil {
		if err := c.opts.HealthCheck(c.machine, root); err != nil {
			return fmt.Errorf("core: health probe: %w", err)
		}
	}
	return nil
}

// The service-interruption cost model, in modelled nanoseconds: one
// post-commit restore window costs downtimeNsPerProc per process killed
// and restored plus downtimeNsPerPage per page restored. Calibrated
// from the per-layer medians of `bash benchmark/run.sh --workload
// kv-cut --seed 1 --trace 1` on a 2-vCPU x86-64 host (interpreter):
// one process with 14 pages (criu.pages_dumped) took criu.restore_us
// 147.4 plus a 6.0 µs kill span. A Memory.SetPage loop there cost 3–5
// µs a page; 5 µs is the per-page share, and the other 83 µs (page
// tables, backing files, registers, descriptors) is per process.
const (
	downtimeNsPerProc = 83_000
	downtimeNsPerPage = 5_000
)

// charge advances the virtual clock by the modelled interruption of
// restores restore windows of set, at Options.TicksPerSecond (the
// Figure 8 window). Failed attempts and rollback restores are charged
// too: their downtime was real.
func (c *Customizer) charge(restores uint64, set *criu.ImageSet) {
	if c.opts.TicksPerSecond == 0 {
		return
	}
	ns := restores * (uint64(len(set.PIDs))*downtimeNsPerProc +
		uint64(set.PagesDumped)*downtimeNsPerPage)
	hi, lo := bits.Mul64(ns, c.opts.TicksPerSecond)
	ticks, _ := bits.Div64(hi, lo, uint64(time.Second))
	c.machine.AdvanceClock(ticks)
}

// ensureHandler injects the signal-handler library into every dumped
// process that does not already carry it. When the library is already
// mapped but this customizer holds no handler state (a fresh or
// rebound instance working on images from an earlier customization),
// the export addresses are re-derived from the module entry so
// verifier bookkeeping and trap counters keep working.
func (c *Customizer) ensureHandler(ed *crit.Editor, pids []int) error {
	for _, pid := range pids {
		if mod, err := ed.FindModule(pid, HandlerLibName); err == nil {
			if c.handler == nil {
				c.handler = handlerFromModule(c.handlerLib, mod)
			}
			continue
		}
		h, err := injectHandler(ed, pid, c.handlerLib, c.opts.RedirectTo)
		if err != nil {
			return err
		}
		if c.handler == nil {
			c.handler = h
		}
	}
	return nil
}

// DisableBlocks disables the named group of basic blocks under the
// given policy. The original bytes are saved so EnableBlocks can
// restore them later.
//
// The block containing the configured RedirectTo address is never
// disabled: the trap handler must always be able to land there, or a
// blocked feature would re-trap forever (the redirect target is, by
// construction, rarely covered by profiling traces).
func (c *Customizer) DisableBlocks(name string, blocks []coverage.AbsBlock, policy Policy) (Stats, error) {
	blocks = c.filterProtected(blocks)
	if len(blocks) == 0 {
		return Stats{}, fmt.Errorf("core: no blocks to disable for %q", name)
	}
	var applied Stats
	stats, err := c.Rewrite(func(ed *crit.Editor, pids []int) error {
		applied = Stats{} // the closure re-runs on retried attempts
		for _, pid := range pids {
			if err := c.applyPolicy(ed, pid, blocks, policy, &applied); err != nil {
				return err
			}
		}
		return nil
	})
	stats.BlocksPatched = applied.BlocksPatched
	stats.PagesUnmapped = applied.PagesUnmapped
	if err != nil {
		return stats, err
	}
	c.disabled[name] = append([]coverage.AbsBlock(nil), blocks...)
	return stats, nil
}

// filterProtected drops blocks that cover the redirect target.
func (c *Customizer) filterProtected(blocks []coverage.AbsBlock) []coverage.AbsBlock {
	if c.opts.RedirectTo == 0 {
		return blocks
	}
	out := make([]coverage.AbsBlock, 0, len(blocks))
	for _, b := range blocks {
		if c.opts.RedirectTo >= b.Addr && c.opts.RedirectTo < b.Addr+b.Size {
			continue
		}
		out = append(out, b)
	}
	return out
}

func (c *Customizer) applyPolicy(ed *crit.Editor, pid int, blocks []coverage.AbsBlock, policy Policy, stats *Stats) error {
	switch policy {
	case PolicyBlockEntry:
		for _, b := range blocks {
			if err := c.saveAndPatch(ed, pid, b.Addr, 1); err != nil {
				return err
			}
			stats.BlocksPatched++
		}
	case PolicyWipeBlocks:
		for _, b := range blocks {
			if err := c.saveAndPatch(ed, pid, b.Addr, int(b.Size)); err != nil {
				return err
			}
			stats.BlocksPatched++
		}
	case PolicyUnmapPages:
		full, partial := splitPageCoverage(blocks)
		for _, pr := range full {
			if err := ed.UnmapRange(pid, pr.start, pr.end); err != nil {
				return err
			}
			stats.PagesUnmapped += int((pr.end - pr.start) / kernel.PageSize)
			c.unmapped = append(c.unmapped, pr)
		}
		for _, b := range partial {
			if err := c.saveAndPatch(ed, pid, b.Addr, int(b.Size)); err != nil {
				return err
			}
			stats.BlocksPatched++
		}
	default:
		return fmt.Errorf("core: unknown policy %v", policy)
	}
	return nil
}

// saveAndPatch records the original bytes (once) and overwrites them
// with INT3. In verifier mode the (addr, original-first-byte) pair is
// also published to the in-guest table and the page made writable so
// the handler can self-heal false removals.
func (c *Customizer) saveAndPatch(ed *crit.Editor, pid int, addr uint64, n int) error {
	orig, err := ed.ReadMem(pid, addr, n)
	if err != nil {
		return err
	}
	if _, ok := c.saved[addr]; !ok {
		c.saved[addr] = orig
	}
	if err := ed.WipeRange(pid, addr, uint64(n)); err != nil {
		return err
	}
	if c.opts.Verifier && c.handler != nil {
		if err := addVerifierEntry(ed, pid, c.handler, c.verifierCount, addr, orig[0]); err != nil {
			return err
		}
		c.verifierCount++
		if err := c.makeTextWritable(ed, pid, addr); err != nil {
			return err
		}
	}
	return nil
}

// makeTextWritable flips the VMA containing addr to RWX in the image
// (verifier mode only: the in-guest handler restores bytes itself).
func (c *Customizer) makeTextWritable(ed *crit.Editor, pid int, addr uint64) error {
	vmas, err := ed.VMAs(pid)
	if err != nil {
		return err
	}
	for _, v := range vmas {
		if addr >= v.Start && addr < v.End {
			if delf.Perm(v.Perm)&delf.PermW != 0 {
				return nil
			}
			return c.setVMAPerm(ed, pid, v.Start, v.Perm|uint8(delf.PermW))
		}
	}
	return fmt.Errorf("core: no VMA at %#x", addr)
}

func (c *Customizer) setVMAPerm(ed *crit.Editor, pid int, start uint64, perm uint8) error {
	pi, err := ed.Set().Proc(pid)
	if err != nil {
		return err
	}
	for i := range pi.MM.VMAs {
		if pi.MM.VMAs[i].Start == start {
			pi.MM.VMAs[i].Perm = perm
			return nil
		}
	}
	return fmt.Errorf("core: VMA at %#x vanished", start)
}

// EnableBlocks restores a previously disabled feature: the saved
// original bytes are written back (the paper's bidirectional
// transformation). Unmapped pages cannot be re-enabled this way.
func (c *Customizer) EnableBlocks(name string) (Stats, error) {
	if _, ok := c.disabled[name]; !ok {
		return Stats{}, fmt.Errorf("%w: %q", ErrNotDisabled, name)
	}
	return c.enable([]string{name})
}

// EnableAll restores every currently disabled feature in a single
// rewrite — the supervisor's "turn everything back on" rung. Features
// whose pages were unmapped (PolicyUnmapPages) cannot be restored
// byte-wise and make EnableAll fail like EnableBlocks would; callers
// needing a guaranteed way back from that state restore images
// instead. With nothing disabled it is a no-op.
func (c *Customizer) EnableAll() (Stats, error) {
	if len(c.disabled) == 0 {
		return Stats{}, nil
	}
	return c.enable(c.features())
}

// enable writes the saved original bytes of the named disabled
// features back in one rewrite and, on commit, forgets them.
func (c *Customizer) enable(names []string) (Stats, error) {
	patched := 0
	stats, err := c.Rewrite(func(ed *crit.Editor, pids []int) error {
		patched = 0 // the closure re-runs on retried attempts
		for _, pid := range pids {
			for _, name := range names {
				for _, b := range c.disabled[name] {
					orig, ok := c.saved[b.Addr]
					if !ok {
						return fmt.Errorf("core: no saved bytes for %#x (feature %q)", b.Addr, name)
					}
					if err := ed.WriteMem(pid, b.Addr, orig); err != nil {
						return err
					}
					patched++
				}
			}
		}
		return nil
	})
	stats.BlocksPatched = patched
	if err != nil {
		return stats, err
	}
	for _, name := range names {
		for _, b := range c.disabled[name] {
			delete(c.saved, b.Addr)
		}
		delete(c.disabled, name)
	}
	return stats, nil
}

// Checkpoint snapshots the live guest for external keeping (e.g. the
// supervisor's last-good images): a complete set, restorable on its
// own and validated against the machine. Callers must not mutate it.
func (c *Customizer) Checkpoint() (*criu.ImageSet, error) {
	set, _, err := c.dump()
	return set, err
}

// dump checkpoints the live tree, times the dump alone
// (Stats.Checkpoint), and validates the set while the guest still
// runs.
func (c *Customizer) dump() (*criu.ImageSet, time.Duration, error) {
	p, err := c.machine.Process(c.pid)
	if err != nil || p.Exited() {
		return nil, 0, ErrDead
	}
	t0 := time.Now()
	endCkpt := c.span("checkpoint", 0)
	set, err := criu.Dump(c.machine, c.pid, criu.DumpOpts{
		ExecPages: true, Tree: c.opts.Tree,
	})
	endCkpt(err)
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: %w", err)
	}
	took := time.Since(t0)
	endVal := c.span("validate", 0)
	err = set.Validate(c.machine)
	endVal(err)
	if err != nil {
		return nil, took, fmt.Errorf("checkpoint: %w", err)
	}
	return set, took, nil
}

// restoreTries bounds RestoreImages: how many times it tries to
// restore a set before the guest is lost. The tries happen within one
// call because a failed restore leaves no live process, so the virtual
// clock freezes and no later tick could come back to retry.
const restoreTries = 5

// RestoreImages replaces the guest with a checkpoint taken outside
// the rewrite cycle — the supervisor's last-good images after its
// degradation ladder bottoms out, or a fleet replica's pristine
// checkpoint. Every live process on the machine, plus the dead ones a
// failed rollback or restore left from this customizer's tree, is
// replaced by set (see replace): the restored processes inherit their
// translation caches and the customizer is re-pointed at the restored
// root. Each of up to restoreTries tries passes the
// faultinject.SiteRestoreImages site after the kill, so a failed try
// always leaves the guest down; failed returns the errors of the tries
// that failed, and err is non-nil only when every try failed.
// All customization bookkeeping is reset to "nothing disabled": the
// restored images predate every edit this instance applied. If the
// images do carry an injected handler, the next rewrite re-derives its
// state from the module table instead of re-injecting. It charges no
// virtual time.
func (c *Customizer) RestoreImages(set *criu.ImageSet) (failed []error, err error) {
	for try := 1; try <= restoreTries; try++ {
		preds := slices.Clone(c.orphans)
		for _, p := range c.machine.Processes() {
			preds = append(preds, p.PID())
		}
		var procs []*kernel.Process
		procs, err = c.replace(&Stats{}, preds, set, "restore", faultinject.SiteRestoreImages, try)
		if err != nil {
			failed = append(failed, err)
			continue
		}
		c.pid = procs[0].PID() // Restore returns the dump root first
		c.books = books{saved: map[uint64][]byte{}}
		c.disabled = map[string][]coverage.AbsBlock{}
		// The restored tree's text is a fresh expected state; the old
		// oracle described a guest that no longer exists.
		return failed, c.sealText()
	}
	return failed, fmt.Errorf("core: images not restored after %d tries: %w", restoreTries, err)
}

// Disabled reports the currently disabled block groups.
func (c *Customizer) Disabled() map[string][]coverage.AbsBlock {
	out := make(map[string][]coverage.AbsBlock, len(c.disabled))
	for k, v := range c.disabled {
		out[k] = append([]coverage.AbsBlock(nil), v...)
	}
	return out
}

// DisabledBlockCount returns the total number of disabled blocks.
func (c *Customizer) DisabledBlockCount() int {
	n := 0
	for _, v := range c.disabled {
		n += len(v)
	}
	return n
}

// DisabledBytes returns the total size of disabled block spans plus
// unmapped pages.
func (c *Customizer) DisabledBytes() uint64 {
	var n uint64
	for _, blocks := range c.disabled {
		for _, b := range blocks {
			n += b.Size
		}
	}
	for _, pr := range c.unmapped {
		n += pr.end - pr.start
	}
	return n
}

// TrapHits reads the injected handler's hit counter from the live
// process.
func (c *Customizer) TrapHits() (uint64, error) {
	if c.handler == nil {
		return 0, fmt.Errorf("core: no handler injected")
	}
	p, err := c.machine.Process(c.pid)
	if err != nil {
		return 0, err
	}
	return p.Mem().ReadU64(c.handler.HitsAddr)
}

// FalseRemovals reads the verifier log: addresses whose removal the
// handler reverted at run time (§3.2.3). The log holds at most
// maxVerifierEntries addresses; use FalseRemovalsSeen to detect
// whether the guest healed more than that.
func (c *Customizer) FalseRemovals() ([]uint64, error) {
	out, _, err := c.FalseRemovalsSeen()
	return out, err
}

// FalseRemovalsSeen reads the verifier log and also returns how many
// reverts the guest performed in total. The in-guest handler counts
// every revert in flog_len but stores only the first
// maxVerifierEntries addresses, so seen > len(addrs) means the log
// overflowed and the excess addresses were dropped — surfaced here
// (and as a "verifier.flog.truncated" trace event) rather than
// silently capped.
func (c *Customizer) FalseRemovalsSeen() (addrs []uint64, seen uint64, err error) {
	if c.handler == nil {
		return nil, 0, fmt.Errorf("core: no handler injected")
	}
	p, err := c.machine.Process(c.pid)
	if err != nil {
		return nil, 0, err
	}
	seen, err = p.Mem().ReadU64(c.handler.FLogLen)
	if err != nil {
		return nil, 0, err
	}
	n := seen
	if n > maxVerifierEntries {
		n = maxVerifierEntries
		c.point("verifier.flog.truncated", int64(seen-n))
	}
	addrs = make([]uint64, 0, n)
	for i := uint64(0); i < n; i++ {
		a, err := p.Mem().ReadU64(c.handler.FLog + 8*i)
		if err != nil {
			return nil, 0, err
		}
		addrs = append(addrs, a)
	}
	return addrs, seen, nil
}

// InHandler reports whether any live guest process is currently
// executing inside the injected SIGTRAP handler library. Host-side
// verifier maintenance (AdoptFalseRemovals) rewrites the vtable the
// handler scans; doing that while a guest is mid-scan corrupts the
// lookup, so asynchronous callers (the supervisor's closed loop) must
// defer adoption until the guest is out of the handler.
func (c *Customizer) InHandler() bool {
	if c.handler == nil {
		return false
	}
	for _, p := range c.machine.Processes() {
		if p.Exited() {
			continue
		}
		for _, mod := range p.Modules() {
			if mod.Name == HandlerLibName && mod.Contains(p.RIP()) {
				return true
			}
		}
	}
	return false
}

// AdoptFalseRemovals completes the §3.2.3 validation loop: every
// address the in-guest verifier healed is accepted as wanted code —
// dropped from the disabled bookkeeping so later EnableBlocks /
// DisableBlocks cycles treat it as never removed. The in-guest
// verifier state is reset to match: the false-removal log is cleared
// and the adopted addresses' vtable slots are compacted away, so a
// later adoption cycle cannot re-adopt stale addresses and the
// 256-entry table does not fill one-way across disable/adopt cycles.
// It returns the adopted addresses.
func (c *Customizer) AdoptFalseRemovals() ([]uint64, error) {
	healed, err := c.FalseRemovals()
	if err != nil {
		return nil, err
	}
	healedSet := make(map[uint64]bool, len(healed))
	for _, a := range healed {
		healedSet[a] = true
	}
	for name, blocks := range c.disabled {
		keep := blocks[:0:0]
		for _, b := range blocks {
			if healedSet[b.Addr] {
				delete(c.saved, b.Addr)
				continue
			}
			keep = append(keep, b)
		}
		if len(keep) == 0 {
			delete(c.disabled, name)
		} else {
			c.disabled[name] = keep
		}
	}
	if len(healed) > 0 {
		if err := c.resetGuestVerifier(healedSet); err != nil {
			return healed, fmt.Errorf("core: adopt: %w", err)
		}
		c.point("verifier.adopted", int64(len(healed)))
		// The verifier restored the original byte at each healed
		// address in live text: the expected state of those pages moved,
		// so the oracle must move with it.
		_ = c.seal(healedPages(healed))
	}
	return healed, nil
}

// resetGuestVerifier clears the in-guest false-removal log and
// compacts adopted addresses out of the live vtable, restoring
// vtable_len (and the host-side slot cursor) so freed slots are
// reusable. The live guest's memory is authoritative here — the
// handler mutates these words at trap time — and the next checkpoint
// naturally carries the compacted table into the images.
func (c *Customizer) resetGuestVerifier(healedSet map[uint64]bool) error {
	p, err := c.machine.Process(c.pid)
	if err != nil {
		return err
	}
	mem := p.Mem()
	vlen, err := mem.ReadU64(c.handler.VTableLen)
	if err != nil {
		return err
	}
	if vlen > maxVerifierEntries {
		vlen = maxVerifierEntries
	}
	kept := uint64(0)
	for i := uint64(0); i < vlen; i++ {
		addr, err := mem.ReadU64(c.handler.VTable + 16*i)
		if err != nil {
			return err
		}
		if healedSet[addr] {
			continue
		}
		if kept != i {
			orig, err := mem.ReadU64(c.handler.VTable + 16*i + 8)
			if err != nil {
				return err
			}
			if err := mem.WriteU64(c.handler.VTable+16*kept, addr); err != nil {
				return err
			}
			if err := mem.WriteU64(c.handler.VTable+16*kept+8, orig); err != nil {
				return err
			}
		}
		kept++
	}
	// Zero the freed tail so stale entries cannot be matched by a
	// handler racing a partially-updated length (and so the compaction
	// is visible to tests and trace tooling).
	for i := kept; i < vlen; i++ {
		if err := mem.WriteU64(c.handler.VTable+16*i, 0); err != nil {
			return err
		}
		if err := mem.WriteU64(c.handler.VTable+16*i+8, 0); err != nil {
			return err
		}
	}
	if err := mem.WriteU64(c.handler.VTableLen, kept); err != nil {
		return err
	}
	if err := mem.WriteU64(c.handler.FLogLen, 0); err != nil {
		return err
	}
	c.verifierCount = int(kept)
	return nil
}

// splitPageCoverage partitions blocks into page ranges fully covered
// by them (safe to unmap) and leftover blocks (wiped instead).
//
// Coverage profiles routinely contain overlapping blocks (a function
// recorded both whole and as its inner basic blocks), so the covered
// bytes of each page are counted as the measure of the *union* of the
// block spans on it — summing raw lengths would double-count overlaps
// and could declare a partially-covered page full, unmapping live code.
func splitPageCoverage(blocks []coverage.AbsBlock) ([]pageRange, []coverage.AbsBlock) {
	type span struct{ lo, hi uint64 }
	spansOn := map[uint64][]span{} // page -> covered spans on it
	for _, b := range blocks {
		for a := b.Addr; a < b.Addr+b.Size; {
			pn := a / kernel.PageSize
			end := (pn + 1) * kernel.PageSize
			hi := b.Addr + b.Size
			if hi > end {
				hi = end
			}
			spansOn[pn] = append(spansOn[pn], span{lo: a, hi: hi})
			a = hi
		}
	}
	var full []pageRange
	fullSet := map[uint64]bool{}
	for pn, spans := range spansOn {
		slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
		var union, hi uint64
		lo := spans[0].lo
		hi = spans[0].hi
		for _, s := range spans[1:] {
			if s.lo <= hi {
				if s.hi > hi {
					hi = s.hi
				}
				continue
			}
			union += hi - lo
			lo, hi = s.lo, s.hi
		}
		union += hi - lo
		if union >= kernel.PageSize {
			fullSet[pn] = true
		}
	}
	// Coalesce adjacent full pages.
	pns := sortedKeys(fullSet)
	for i := 0; i < len(pns); {
		j := i
		for j+1 < len(pns) && pns[j+1] == pns[j]+1 {
			j++
		}
		full = append(full, pageRange{
			start: pns[i] * kernel.PageSize,
			end:   (pns[j] + 1) * kernel.PageSize,
		})
		i = j + 1
	}
	var partial []coverage.AbsBlock
	for _, b := range blocks {
		// Keep the sub-spans not inside full pages.
		for a := b.Addr; a < b.Addr+b.Size; {
			pn := a / kernel.PageSize
			end := (pn + 1) * kernel.PageSize
			hi := b.Addr + b.Size
			if hi > end {
				hi = end
			}
			if !fullSet[pn] {
				partial = append(partial, coverage.AbsBlock{Addr: a, Size: hi - a})
			}
			a = hi
		}
	}
	return full, partial
}
