// Live-patch fast path: INT3-only removal policies applied directly
// to the running guest's text, with zero downtime.
//
// The checkpoint transaction (rewrite.go's kill → restore cycle) pays
// the restore cost as the service-interruption window every time, even
// for a one-byte INT3 patch. But for PolicyBlockEntry and
// PolicyWipeBlocks the edit is exactly "write INT3 over bytes the
// guest must not be executing" — and since this kernel's scheduler is
// ours, we can establish that safety directly instead of freezing the
// world: between scheduler rounds no process is mid-instruction, the
// process table is stable, and host-side Memory.Write breaks CoW
// sharing (so an earlier checkpoint keeps the pristine page and the
// next one carries the patch).
//
// Protocol:
//
//  1. Eligibility — the policy must be INT3-only, verifier mode off
//     (its vtable edits need the image editor), and every target
//     process must already carry the injected SIGTRAP handler library
//     (a live INT3 with no handler would kill the guest; library
//     injection itself requires the transaction).
//  2. Quiesce — run single scheduler rounds until no target RIP and no
//     saved return address on any target stack lies inside an affected
//     block. The stack scan is conservative: every 8-byte-aligned word
//     from SP to the top of the stack VMA counts as a potential return
//     address, which covers both CALL frames and signal-frame saved
//     RIPs (sigreturn pops the frame from the stack, so a pending
//     frame's resume address is always above SP). False positives only
//     cost a fallback.
//  3. Patch — save original bytes, write INT3 through Memory.Write.
//     Any failure (including injected core.livepatch.* faults) unwinds
//     every byte already written before falling back, so the fallback
//     transaction never checkpoints half-patched text.
//  4. Commit — one last Options.BeforeCommit gate (a halted fleet
//     rollout aborts here, exactly like the transaction's pre-commit
//     exit), then the saved bytes enter the customizer bookkeeping.
//
// Anything the fast path cannot prove safe falls back to
// DisableBlocks' full checkpoint transaction; Stats.FellBack and
// Stats.FallbackReason record why.
package core

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/dynacut/dynacut/internal/coverage"
	"github.com/dynacut/dynacut/internal/crit"
	"github.com/dynacut/dynacut/internal/criu"
	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/isa"
	"github.com/dynacut/dynacut/internal/kernel"
)

// DefaultQuiesceRounds bounds the quiescence loop when
// Options.LiveQuiesceRounds is zero. A round gives every live process
// one 64-instruction slice, so even a deep call chain inside an
// affected block drains within a few rounds — a guest still unsafe
// after eight is parked there and will never move.
const DefaultQuiesceRounds = 8

// blockSpan is one affected [lo, hi) text range.
type blockSpan struct{ lo, hi uint64 }

// DisableBlocksLive disables the named block group like DisableBlocks,
// but tries the live-patch fast path first: quiesce at a scheduler
// round, verify no RIP or saved return address sits inside an affected
// block, and write the INT3 bytes directly into the running VMAs —
// zero downtime, no kill, no restore. When the fast path is not
// applicable (PolicyUnmapPages, verifier mode, missing handler
// library) or cannot complete (quiescence timeout, injected fault), it
// falls back to the checkpoint transaction; the returned Stats carry
// LivePatched / FellBack / FallbackReason so callers and rollout
// journals can tell the paths apart.
func (c *Customizer) DisableBlocksLive(name string, blocks []coverage.AbsBlock, policy Policy) (Stats, error) {
	filtered := c.filterProtected(blocks)
	if len(filtered) == 0 {
		return Stats{}, fmt.Errorf("core: no blocks to disable for %q", name)
	}
	stats, reason, err := c.livePatch(name, filtered, policy)
	if reason == "" {
		// The fast path ran to a verdict (committed or hard error like
		// ErrDead/ErrAborted).
		return stats, err
	}
	c.point("livepatch.fallback", int64(stats.QuiesceRounds))
	if o := c.opts.Observer; o != nil {
		o.Add("core.livepatch.fallbacks", 1)
	}
	fstats, ferr := c.DisableBlocks(name, blocks, policy)
	fstats.FellBack = true
	fstats.FallbackReason = reason
	fstats.QuiesceRounds = stats.QuiesceRounds
	return fstats, ferr
}

// livePatch attempts the fast path. A non-empty reason means "fall
// back to the transaction" with the guest untouched (any partial
// writes already unwound); err is only non-nil for hard verdicts that
// the transaction could not improve on (dead guest, BeforeCommit
// abort).
func (c *Customizer) livePatch(name string, blocks []coverage.AbsBlock, policy Policy) (stats Stats, reason string, err error) {
	if policy != PolicyBlockEntry && policy != PolicyWipeBlocks {
		return stats, fmt.Sprintf("policy %v requires the checkpoint transaction", policy), nil
	}
	if c.opts.Verifier {
		return stats, "verifier mode requires image-side vtable edits", nil
	}
	root, err := c.machine.Process(c.pid)
	if err != nil || root.Exited() {
		return stats, "", ErrDead
	}

	targets := c.liveTargets()
	for _, p := range targets {
		mod, ok := handlerModule(p)
		if !ok {
			return stats, fmt.Sprintf("handler library not mapped in pid %d", p.PID()), nil
		}
		if c.handler == nil {
			// A customizer rebound onto an already-customized guest has
			// no handler state; re-derive it from the live module so
			// TrapHits and verifier maintenance keep working.
			c.handler = handlerFromModule(c.handlerLib, criu.ModuleEntry{Name: mod.Name, Lo: mod.Lo, Hi: mod.Hi})
		}
	}

	spans := affectedSpans(blocks)

	endQ := c.span("livepatch.quiesce", 0)
	if ferr := c.machine.Fault(faultinject.SiteLivePatchQuiesce, c.pid); ferr != nil {
		endQ(ferr)
		return stats, fmt.Sprintf("quiesce fault: %v", ferr), nil
	}
	targets, stats.QuiesceRounds, err = c.quiesce(spans, "affected block")
	endQ(nil)
	if errors.Is(err, ErrDead) {
		return stats, "", ErrDead
	}
	if err != nil {
		return stats, err.Error(), nil
	}

	// Patch: write INT3 through Memory.Write (breaks CoW, so the next
	// checkpoint carries the patch and no earlier one does).
	// Every write is logged so any failure unwinds to pristine text.
	var undo undoLog
	endP := c.span("livepatch.patch", 0)
	savedNew := map[uint64][]byte{}
	patched := 0
	for _, p := range targets {
		mem := p.Mem()
		for _, b := range blocks {
			n := 1
			if policy == PolicyWipeBlocks {
				n = int(b.Size)
			}
			if ferr := c.machine.Fault(faultinject.SiteLivePatchPatch, p.PID()); ferr != nil {
				undo.unwind()
				endP(ferr)
				return stats, fmt.Sprintf("patch fault at %#x: %v", b.Addr, ferr), nil
			}
			orig, werr := undo.write(mem, b.Addr, bytes.Repeat([]byte{0xCC}, n))
			if werr != nil {
				undo.unwind()
				endP(werr)
				return stats, fmt.Sprintf("patching %#x: %v", b.Addr, werr), nil
			}
			if _, ok := c.saved[b.Addr]; !ok {
				if _, ok := savedNew[b.Addr]; !ok {
					savedNew[b.Addr] = orig
				}
			}
			patched++
		}
	}
	endP(nil)

	// Commit. The BeforeCommit gate mirrors the transaction's
	// pre-commit exit: a halted fleet rollout aborts here with the
	// guest's pristine text restored — ErrAborted, not a fallback (the
	// transaction would abort at the same gate).
	if c.opts.BeforeCommit != nil {
		if aerr := c.opts.BeforeCommit(1); aerr != nil {
			undo.unwind()
			c.point("rewrite.abort", 1)
			return stats, "", fmt.Errorf("%w: %v", ErrAborted, aerr)
		}
	}
	if ferr := c.machine.Fault(faultinject.SiteLivePatchCommit, len(blocks)); ferr != nil {
		undo.unwind()
		return stats, fmt.Sprintf("commit fault: %v", ferr), nil
	}
	for addr, orig := range savedNew {
		c.saved[addr] = orig
	}
	c.disabled[name] = append([]coverage.AbsBlock(nil), blocks...)
	stats.BlocksPatched = patched
	stats.Attempts = 1
	stats.LivePatched = true
	// Downtime stays zero by construction: the guest was never killed
	// and the writes land between scheduler rounds, instantaneous on
	// the virtual clock. The quiesce rounds were real guest execution
	// (service, not interruption) and already advanced the clock.
	c.point("livepatch.commit", int64(patched))
	if o := c.opts.Observer; o != nil {
		o.Add("core.livepatches", 1)
	}
	// Oracle commit: only the pages the patch touched are sealed
	// (their pre-patch digests join the version chain).
	_ = c.seal(spanPages(spans))
	return stats, "", nil
}

// quiesce steps whole scheduler rounds until no live target's RIP or
// saved return address lies inside spans: the safe point at which a
// live write may land (DisableBlocksLive's patch, Repair's rewrite).
// It returns the live targets — a fork during a round can add one, so
// the set is recomputed after every round — and the rounds it ran. It
// fails with ErrDead when no target is left, and otherwise names the
// last conflict: the round budget (Options.LiveQuiesceRounds) ran out,
// or every live process blocked with the guest parked inside what
// inside describes, where more rounds cannot help.
func (c *Customizer) quiesce(spans []blockSpan, inside string) ([]*kernel.Process, int, error) {
	maxRounds := c.opts.LiveQuiesceRounds
	if maxRounds <= 0 {
		maxRounds = DefaultQuiesceRounds
	}
	targets := c.liveTargets()
	for rounds := 0; ; {
		if len(targets) == 0 {
			return nil, rounds, ErrDead
		}
		conflict := liveConflict(targets, spans)
		if conflict == "" {
			return targets, rounds, nil
		}
		if rounds >= maxRounds {
			return nil, rounds, fmt.Errorf("quiescence not reached in %d rounds: %s", maxRounds, conflict)
		}
		n := c.machine.RunRound()
		rounds++
		if n == 0 {
			return nil, rounds, fmt.Errorf("guest parked inside %s: %s", inside, conflict)
		}
		targets = c.liveTargets()
	}
}

// undoLog records the original bytes under every live write, so a
// live edit that fails part-way puts the guest back exactly.
type undoLog []liveWrite

type liveWrite struct {
	mem  *kernel.Memory
	addr uint64
	orig []byte
}

// write overwrites guest memory at addr with data, logging and
// returning the bytes it replaced.
func (u *undoLog) write(mem *kernel.Memory, addr uint64, data []byte) ([]byte, error) {
	orig, err := mem.Read(addr, len(data))
	if err != nil {
		return nil, err
	}
	if err := mem.Write(addr, data); err != nil {
		return nil, err
	}
	*u = append(*u, liveWrite{mem: mem, addr: addr, orig: orig})
	return orig, nil
}

// unwind restores every logged write, newest first, and empties the
// log. Restoring bytes just written cannot fail: the pages are
// resident and private after the write.
func (u *undoLog) unwind() {
	for i := len(*u) - 1; i >= 0; i-- {
		w := (*u)[i]
		_ = w.mem.Write(w.addr, w.orig)
	}
	*u = nil
}

// spanPages returns the sorted, deduplicated page numbers covered by
// the spans.
func spanPages(spans []blockSpan) []uint64 {
	seen := map[uint64]struct{}{}
	for _, s := range spans {
		for pn := s.lo / kernel.PageSize; pn <= (s.hi-1)/kernel.PageSize; pn++ {
			seen[pn] = struct{}{}
		}
	}
	return sortedKeys(seen)
}

// liveTargets returns the live processes the patch applies to: the
// root alone, or (Options.Tree) the root and every live descendant —
// the same set the transaction dumps. Fork-created children must be
// included: text pages are copy-on-write per process, so patching only
// the parent would leave a child running the unpatched feature.
func (c *Customizer) liveTargets() []*kernel.Process {
	procs := c.machine.Processes()
	if !c.opts.Tree {
		for _, p := range procs {
			if p.PID() == c.pid {
				return []*kernel.Process{p}
			}
		}
		return nil
	}
	inTree := map[int]bool{c.pid: true}
	// Processes() is PID-sorted and children have higher PIDs than
	// their parent, so one pass closes the descendant set.
	var out []*kernel.Process
	for _, p := range procs {
		if inTree[p.PID()] || inTree[p.Parent()] {
			inTree[p.PID()] = true
			out = append(out, p)
		}
	}
	return out
}

// handlerModule finds the injected handler library mapping in p.
func handlerModule(p *kernel.Process) (kernel.Module, bool) {
	for _, mod := range p.Modules() {
		if mod.Name == HandlerLibName {
			return mod, true
		}
	}
	return kernel.Module{}, false
}

// affectedSpans converts blocks to their full [Addr, Addr+Size) spans.
// Both policies use whole-block spans for the safety check even though
// PolicyBlockEntry writes a single byte: a RIP or return address
// anywhere inside the block means the guest intends to execute bytes
// whose reachability the patch changes, and a conservative answer only
// costs a fallback.
func affectedSpans(blocks []coverage.AbsBlock) []blockSpan {
	spans := make([]blockSpan, len(blocks))
	for i, b := range blocks {
		spans[i] = blockSpan{lo: b.Addr, hi: b.Addr + b.Size}
	}
	return spans
}

func inSpans(addr uint64, spans []blockSpan) bool {
	for _, s := range spans {
		if addr >= s.lo && addr < s.hi {
			return true
		}
	}
	return false
}

// liveConflict reports why patching is unsafe right now ("" = safe):
// some target's RIP is inside an affected block, or a word on its live
// stack — a CALL return address or a signal frame's saved RIP — points
// into one. Every target process is checked, so forked children parked
// inside a block are caught (the multi-process gap InHandler's
// single-concern scan never had to cover).
func liveConflict(targets []*kernel.Process, spans []blockSpan) string {
	for _, p := range targets {
		if p.Exited() {
			continue
		}
		if inSpans(p.RIP(), spans) {
			return fmt.Sprintf("pid %d RIP %#x in affected block", p.PID(), p.RIP())
		}
		mem := p.Mem()
		sp := p.Reg(isa.SP)
		vma, ok := mem.VMAAt(sp)
		if !ok {
			// No mapped stack to prove safe — treat as a conflict.
			return fmt.Sprintf("pid %d SP %#x unmapped", p.PID(), sp)
		}
		for a := sp &^ 7; a+8 <= vma.End; a += 8 {
			w, err := mem.ReadU64(a)
			if err != nil {
				return fmt.Sprintf("pid %d stack read %#x: %v", p.PID(), a, err)
			}
			if inSpans(w, spans) {
				return fmt.Sprintf("pid %d stack word %#x -> %#x in affected block", p.PID(), a, w)
			}
		}
	}
	return ""
}

// InstallHandler injects the SIGTRAP handler library now, through a
// no-op rewrite transaction, without disabling anything. Fleet
// templates call it once before cloning so every replica already
// carries the handler and later DisableBlocksLive calls qualify for
// the zero-downtime fast path (the live path cannot inject a library;
// that is one of its fallback cases). A guest that already has the
// handler returns immediately with zero Stats.
func (c *Customizer) InstallHandler() (Stats, error) {
	p, err := c.machine.Process(c.pid)
	if err != nil || p.Exited() {
		return Stats{}, ErrDead
	}
	if _, ok := handlerModule(p); ok {
		return Stats{}, nil
	}
	return c.Rewrite(func(ed *crit.Editor, pids []int) error { return nil })
}
