package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"github.com/dynacut/dynacut/internal/faultinject"
)

// The attestation sweep is the fleet's anti-entropy loop. Per-replica
// rollback and journaled resume defend against faults that announce
// themselves; the sweep defends against the ones that don't — a bit
// flip in a text page, a rotted store blob, a collection channel that
// reports the wrong root. Each sweep collects every active replica's
// live text root (cheap: one hash pass, no classification), compares
// it against that replica's own expected-state oracle, and pays for
// the authoritative page-by-page attestation only where they disagree.
// Diverged pages are repaired in place from the content-addressed
// store — zero downtime, same unwind discipline as the live-patch fast
// path — and a replica that exhausts its repair budget is quarantined:
// drained from subsequent waves, journaled, and re-attested before any
// resumed controller readmits it. The invariant the sweep maintains:
// every replica is attested-correct or journaled-quarantined; none is
// silently wrong.

// defaultRepairBudget bounds in-place repair attempts per replica per
// sweep before the sweep quarantines the replica.
const defaultRepairBudget = 3

// ReplicaAttest is one replica's result in one attestation sweep.
type ReplicaAttest struct {
	Index int
	// Verdict classifies what the sweep found and did: clean, repaired
	// (known prior-version bytes), foreign (unknown bytes, still
	// repaired from the store), or skew (the collected root lied; the
	// text itself attested clean).
	Verdict AttestVerdict
	// Checked counts (process, page) pairs the authoritative
	// attestation hashed (zero on the cheap clean path).
	Checked int
	// Repaired counts pages re-patched in place; Tries how many repair
	// attempts ran.
	Repaired int
	Tries    int
	// Err is the terminal failure. It is nil whenever the replica ended
	// attested-correct — even when earlier repair tries failed; see
	// RepairErrs for that history.
	Err error
	// RepairErrs is the retry history of the repair ladder: one error
	// per failed try. A replica repaired on the first try has none.
	RepairErrs []error
}

// SweepResult summarizes one fleet attestation sweep.
type SweepResult struct {
	Wave     int
	Replicas []ReplicaAttest
	// Repaired / Skews / Quarantined count replicas by sweep outcome.
	Repaired    int
	Skews       int
	Quarantined int
	// Quorum is the size of the largest set of identical collected
	// roots; Divergent counts replicas outside it. The vote is advisory
	// only — mid-rollout a fleet legitimately holds two root
	// populations, and a skewed channel can outvote the truth — so
	// repair decisions come from each replica's own oracle, never from
	// the quorum.
	Quorum    int
	Divergent int
}

// rootIdent is the journaled fingerprint of an attestation root: its
// first four bytes, little-endian.
func rootIdent(root [sha256.Size]byte) uint32 {
	return binary.LittleEndian.Uint32(root[:4])
}

// expectedIdent fingerprints the replica's expected text root for its
// step intent: the root of the oracle its customizer last sealed. It
// reads that oracle only and hashes no page, so a replica whose root
// process has died still journals the root its text was last expected
// to have; resume cannot read such a replica's live text and refuses
// the step.
func expectedIdent(r *Replica) uint32 {
	return rootIdent(r.Cust.Attestation().Root)
}

// AttestSweep runs one fleet-wide attestation sweep: collect each
// active replica's live root, flag divergence from the quorum
// (advisory) and from the replica's own oracle (authoritative), repair
// diverged text in place, quarantine replicas whose repair budget is
// exhausted. Every verdict is journaled (RecAttest / RecRepair /
// RecQuarantine), so a controller crash mid-sweep resumes with the
// quarantine set intact. Quarantined replicas are skipped — readmission
// happens only through the resume path's re-attestation.
func (c *Controller) AttestSweep(wave int) *SweepResult {
	f := c.f
	sw := &SweepResult{Wave: wave}
	f.obs.PhaseStart("fleet.attest", wave)
	now := c.laneMax()

	type collected struct {
		r    *Replica
		want [sha256.Size]byte
		got  [sha256.Size]byte
		err  error
	}
	var cols []collected
	tally := map[[sha256.Size]byte]int{}
	for _, r := range f.replicas {
		if r.Quarantined() {
			continue
		}
		col := collected{r: r, want: r.Cust.Attestation().Root}
		col.got, col.err = r.Cust.LiveRoot()
		// The collection channel itself can lie: an injected
		// fleet.attest.skew fault corrupts the collected root in
		// flight, silently. The oracle comparison below flags it and
		// the authoritative re-attestation then proves the text clean.
		if col.err == nil {
			if err := r.Machine.Fault(faultinject.SiteAttestSkew, r.Index); err != nil {
				col.got[0] ^= 0xff
			}
			tally[col.got]++
		}
		cols = append(cols, col)
	}

	// Advisory quorum: the modal collected root (first-seen wins ties,
	// keeping the sweep deterministic).
	var modal [sha256.Size]byte
	for _, col := range cols {
		if col.err == nil && tally[col.got] > sw.Quorum {
			modal, sw.Quorum = col.got, tally[col.got]
		}
	}
	for _, col := range cols {
		if col.err == nil && col.got != modal {
			sw.Divergent++
			f.obs.Point("fleet.attest.diverged", int64(col.r.Index))
		}
	}

	for _, col := range cols {
		if c.isCrashed() {
			break
		}
		ra := c.sweepReplica(col.r, col.want, col.got, col.err, wave, now)
		sw.Replicas = append(sw.Replicas, ra)
		if ra.Verdict == VerdictSkew {
			sw.Skews++
		}
		if ra.Repaired > 0 {
			sw.Repaired++
		}
		if col.r.Quarantined() {
			sw.Quarantined++
		}
	}
	f.obs.PhaseEnd("fleet.attest", wave, nil)
	return sw
}

// sweepReplica resolves one replica's sweep verdict: the cheap root
// compare, then (only on divergence) the authoritative attestation and
// the repair ladder, then quarantine if the budget runs dry.
func (c *Controller) sweepReplica(r *Replica, want, got [sha256.Size]byte, collErr error, wave int, now uint64) ReplicaAttest {
	f := c.f
	ra := ReplicaAttest{Index: r.Index, Verdict: VerdictClean}
	if collErr != nil {
		ra.Err = collErr
		c.quarantine(r, &ra, 0, wave, now)
		return ra
	}
	if got == want {
		c.append(Record{Kind: RecAttest, Replica: int32(r.Index), Wave: int32(wave),
			Attempt: int32(VerdictClean), Ident: rootIdent(got), VClock: now})
		return ra
	}

	// Collected root diverged from the oracle: pay for the page-by-page
	// attestation. The oracle decides — the collected root only
	// selected this replica for scrutiny.
	rep, err := r.Cust.Attest()
	if err != nil {
		ra.Err = err
		c.quarantine(r, &ra, 0, wave, now)
		return ra
	}
	ra.Checked = rep.Checked
	if rep.Clean() {
		// The text is fine; the collected root was wrong. Nothing to
		// repair — journal the skew so the channel fault is visible.
		ra.Verdict = VerdictSkew
		f.obs.Point("fleet.attest.skew", int64(r.Index))
		c.append(Record{Kind: RecAttest, Replica: int32(r.Index), Wave: int32(wave),
			Attempt: int32(VerdictSkew), Ident: rootIdent(rep.Root),
			Ticks: uint64(rep.Checked), VClock: now})
		return ra
	}

	foreign := rep.Foreign() > 0
	budget := f.cfg.RepairBudget
	if budget <= 0 {
		budget = defaultRepairBudget
	}
	for try := 1; try <= budget; try++ {
		ra.Tries = try
		rs, rerr := r.Cust.Repair(rep, true)
		if !c.append(Record{Kind: RecRepair, Replica: int32(r.Index), Wave: int32(wave),
			Attempt: int32(try), Ticks: uint64(rs.Repaired), VClock: now}) {
			return ra
		}
		if rerr != nil {
			ra.Err = rerr
			ra.RepairErrs = append(ra.RepairErrs, rerr)
			continue
		}
		rep2, aerr := r.Cust.Attest()
		if aerr != nil {
			ra.Err = aerr
			ra.RepairErrs = append(ra.RepairErrs, aerr)
			continue
		}
		if !rep2.Clean() {
			// Fresh divergence landed between the repair and its
			// re-check (a corruption storm); spend another try on it.
			aerr = fmt.Errorf("fleet: replica %d still diverged after repair (%d mismatches)",
				r.Index, len(rep2.Mismatches))
			ra.Err = aerr
			ra.RepairErrs = append(ra.RepairErrs, aerr)
			rep = rep2
			continue
		}
		// Attested-correct. Success clears Err even after failed tries —
		// a repaired replica is healthy — while the tries' errors stay
		// in RepairErrs: history, not health.
		ra.Err = nil
		ra.Repaired += rs.Repaired
		ra.Verdict = VerdictRepaired
		if foreign {
			ra.Verdict = VerdictForeign
		}
		f.obs.Point("fleet.attest.repaired", int64(r.Index))
		c.append(Record{Kind: RecAttest, Replica: int32(r.Index), Wave: int32(wave),
			Attempt: int32(ra.Verdict), Ident: rootIdent(rep2.Root),
			Ticks: uint64(rs.Repaired), VClock: now})
		return ra
	}
	c.quarantine(r, &ra, ra.Tries, wave, now)
	return ra
}

// quarantine drains a replica whose text cannot be attested correct:
// the flag drops it from subsequent waves and sweeps, the journal
// record survives a controller crash, and only the resume path's
// re-attestation can readmit it.
func (c *Controller) quarantine(r *Replica, ra *ReplicaAttest, tries, wave int, now uint64) {
	r.quarantined.Store(true)
	if ra.Err == nil {
		ra.Err = fmt.Errorf("fleet: replica %d quarantined", r.Index)
	} else {
		ra.Err = fmt.Errorf("fleet: replica %d quarantined after %d repair tries: %w",
			r.Index, tries, ra.Err)
	}
	c.f.obs.Point("fleet.quarantine", int64(r.Index))
	c.emit(StepEvent{Kind: "quarantine", Replica: r.Index, Wave: wave, Attempt: tries, VClock: now})
	c.append(Record{Kind: RecQuarantine, Replica: int32(r.Index), Wave: int32(wave),
		Attempt: int32(tries), VClock: now, Note: ra.Err.Error()})
}

// readmitQuarantined re-attests every quarantined replica on resume: a
// replica whose text attests clean (or repairs clean) rejoins the
// fleet with a journaled VerdictReadmit; anything else stays drained.
// Quarantine is a statement about the text, not the replica — if the
// bytes are provably right again, the drain has no reason to persist.
func (c *Controller) readmitQuarantined() {
	for _, r := range c.f.replicas {
		if !r.Quarantined() || c.isCrashed() {
			continue
		}
		rep, _, err := r.Cust.Scrub()
		if err != nil {
			continue // stays quarantined
		}
		r.quarantined.Store(false)
		c.f.obs.Point("fleet.attest.readmit", int64(r.Index))
		c.emit(StepEvent{Kind: "readmit", Replica: r.Index, VClock: c.laneMax()})
		if !c.append(Record{Kind: RecAttest, Replica: int32(r.Index), Wave: -1,
			Attempt: int32(VerdictReadmit), Ident: rootIdent(rep.Root),
			Ticks: uint64(rep.Checked), VClock: c.laneMax(), Note: "readmitted on resume"}) {
			return
		}
	}
}
