package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/dynacut/dynacut/internal/core"
	"github.com/dynacut/dynacut/internal/faultinject"
)

// Controller is the event-driven rollout engine: a work queue of
// per-replica rollout steps, worker lanes that lease steps against a
// virtual-clock deadline, and an append-only CRC-checked journal of
// every intent and outcome. Fleet.Rollout is a thin wrapper that runs
// a fresh controller; ResumeController rebuilds one from a dead
// controller's journal and finishes the rollout without re-rewriting
// replicas the journal proves committed.
//
// Scheduling is deterministic by construction. Each dispatch round
// leases at most one step per worker lane, chosen by (not-before
// time, replica index); the leased rewrites then run concurrently for
// real, but their outcomes are journaled in lane order, so the same
// fleet, payload and fault seed always produce byte-identical
// journals — the property the resume path's tests stand on. A lease
// whose worker dies (the fleet.lease.expire fault site) is recovered
// at its virtual-clock deadline and requeued with capped exponential
// backoff until the step's retry budget runs out.
//
// Crash coverage: the fleet.controller.crash site is consulted at
// every journal record boundary (before and after each append), and a
// failed append itself (fleet.journal.append, a torn write) also
// kills the controller. Either way Run stops scheduling, returns
// ErrControllerCrashed, and leaves Journal() behind for resume.

// ErrControllerCrashed reports an injected controller death; the
// journal survives for ResumeController.
var ErrControllerCrashed = errors.New("fleet: rollout controller crashed")

// Crash boundary identifiers: the detail argument the controller
// passes to the fleet.controller.crash site. crashBefore* fires with
// the record unwritten; crashAfter* fires with it committed.
const (
	crashBeforeRecord = iota + 1
	crashAfterRecord
)

// Controller scheduling constants.
const (
	// leaseTicks is the lease duration on the controller's virtual
	// clock — comfortably above a typical rewrite cost (~65 vticks on
	// the webserv guest), so healthy workers never expire.
	leaseTicks = 1024
	// retryBudget bounds lease attempts per step.
	retryBudget = 3
	// backoffBase / backoffCap shape the capped exponential requeue
	// backoff after a lease expires.
	backoffBase uint64 = 64
	backoffCap  uint64 = 1024
)

// StepEvent is one increment of rollout progress, streamed to
// Config.OnStep as the controller dispatches. Kind is one of "lease",
// "expire", "requeue", "budget-exhausted", "outcome", "skip",
// "resume", "halt" or "crash".
type StepEvent struct {
	Kind    string
	Replica int
	Wave    int
	Attempt int
	Outcome Outcome
	// Mode is the rewrite path a step actually took, set only on
	// "outcome" events; every other kind leaves it zero.
	Mode   StepMode
	VClock uint64
}

// step is one unit of rollout work: rewrite one replica, attempt n.
type step struct {
	replica   int
	wave      int
	attempt   int
	notBefore uint64 // virtual-clock gate set by requeue backoff
}

// lease is a step granted to a worker lane for one dispatch round.
type lease struct {
	step     *step
	lane     int
	start    uint64
	deadline uint64
	died     bool // fleet.lease.expire fired: the worker never ran
	ident    uint32
	out      ReplicaOutcome
}

// Controller runs one rollout over a fleet. Construct with
// NewController or ResumeController; drive with Run.
type Controller struct {
	f     *Fleet
	j     *Journal
	lanes []uint64

	prior    []Record // journal records from a dead predecessor
	hasStart bool
	resumed  bool

	// mu guards the crashed flag and the per-replica attempt counts,
	// which worker goroutines write.
	mu       sync.Mutex
	crashed  bool
	attempts []int
}

// NewController builds a fresh controller over the fleet with an
// empty journal (or the one provided, for callers that keep journal
// bytes elsewhere).
func NewController(f *Fleet, j *Journal) *Controller {
	if j == nil {
		j = NewJournal()
	}
	if f.cfg.FaultHook != nil {
		j.SetFaultHook(f.cfg.FaultHook)
	}
	return &Controller{
		f:        f,
		j:        j,
		lanes:    make([]uint64, f.cfg.Workers),
		attempts: make([]int, len(f.replicas)),
	}
}

// ResumeController rebuilds a controller from a dead controller's
// journal bytes. The journal's torn tail (a crash mid-append) is
// dropped; interior corruption is rejected. The fleet must be the one
// the journal describes — replica count is cross-checked.
func ResumeController(f *Fleet, journal []byte) (*Controller, error) {
	recs, err := DecodeJournal(journal)
	if err != nil {
		return nil, err
	}
	if len(recs) > 0 {
		if recs[0].Kind != RecStart {
			return nil, fmt.Errorf("%w: first record is %s, want start", ErrJournalCorrupt, recs[0].Kind)
		}
		if int(recs[0].Replica) != len(f.replicas) {
			return nil, fmt.Errorf("fleet: journal describes %d replicas, fleet has %d",
				recs[0].Replica, len(f.replicas))
		}
	}
	c := NewController(f, journalFrom(recs))
	c.prior = recs
	c.resumed = true
	return c, nil
}

// Journal returns the controller's journal (live: it keeps growing
// while Run is in flight).
func (c *Controller) Journal() *Journal { return c.j }

// emit streams one step event to the configured callback.
func (c *Controller) emit(ev StepEvent) {
	if c.f.cfg.OnStep != nil {
		c.f.cfg.OnStep(ev)
	}
}

// crashPoint consults the fleet.controller.crash site at a journal
// record boundary; an injected fault flips the controller into the
// crashed state, after which nothing more is scheduled or journaled.
func (c *Controller) crashPoint(detail int) bool {
	c.mu.Lock()
	dead := c.crashed
	c.mu.Unlock()
	if dead {
		return true
	}
	h := c.f.cfg.FaultHook
	if h == nil {
		return false
	}
	if err := h.Fault(faultinject.SiteFleetControllerCrash, detail); err != nil {
		c.die()
		return true
	}
	return false
}

// die marks the controller crashed, stamping the crash at the latest
// lane time. Only the dispatch thread calls it, so the lanes are
// stable.
func (c *Controller) die() {
	c.mu.Lock()
	already := c.crashed
	c.crashed = true
	c.mu.Unlock()
	if !already {
		v := c.laneMax()
		c.f.obs.Point("fleet.controller.crash", int64(v))
		c.emit(StepEvent{Kind: "crash", Replica: -1, VClock: v})
	}
}

// append journals one record with crash boundaries on both sides.
// Returns false when the controller died at either boundary or the
// append itself tore (fleet.journal.append fault).
func (c *Controller) append(r Record) bool {
	if c.crashPoint(crashBeforeRecord) {
		return false
	}
	if err := c.j.Append(r); err != nil {
		c.die()
		return false
	}
	c.f.obs.Point("fleet.journal.append", int64(r.Kind))
	if c.crashPoint(crashAfterRecord) {
		return false
	}
	return true
}

// isCrashed reports the crashed flag.
func (c *Controller) isCrashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// priorState is the per-replica resolution recovered from a journal.
type priorState struct {
	resolved   bool // an outcome record exists
	outcome    ReplicaOutcome
	openIntent bool   // an intent with no outcome: the torn window
	intentRoot uint32 // the latest intent's expected-root fingerprint
	wave       int
}

// replay folds the predecessor's journal records into per-replica
// state plus rollout-level markers.
func (c *Controller) replay(res *RolloutResult) (states []priorState, waveFails map[int]int, haltedAt int, finished bool) {
	states = make([]priorState, len(c.f.replicas))
	waveFails = map[int]int{}
	haltedAt = -1
	var last uint64
	for _, r := range c.prior {
		if r.VClock > last {
			last = r.VClock
		}
		switch r.Kind {
		case RecStart:
			c.hasStart = true
		case RecIntent:
			st := &states[r.Replica]
			st.openIntent = true
			st.intentRoot = r.Ident
			st.wave = int(r.Wave)
		case RecOutcome:
			st := &states[r.Replica]
			st.openIntent = false
			st.resolved = true
			st.wave = int(r.Wave)
			st.outcome = ReplicaOutcome{
				Index:   int(r.Replica),
				Outcome: r.Outcome,
				Ticks:   r.Ticks,
			}
			if r.Note != "" {
				st.outcome.Err = fmt.Errorf("fleet: journaled failure: %s", r.Note)
			}
			if r.Outcome == OutcomeCommitted {
				st.outcome.Err = nil
			}
		case RecWaveDone:
			waveFails[int(r.Wave)] = int(r.Attempt)
		case RecHalt:
			haltedAt = int(r.Wave)
			c.f.halted.Store(true)
		case RecDone:
			finished = true
		case RecQuarantine:
			if i := int(r.Replica); i >= 0 && i < len(c.f.replicas) {
				c.f.replicas[i].quarantined.Store(true)
			}
		case RecAttest:
			// The only attest verdict that changes replayed state is a
			// readmission lifting an earlier quarantine.
			if i := int(r.Replica); AttestVerdict(r.Attempt) == VerdictReadmit &&
				i >= 0 && i < len(c.f.replicas) {
				c.f.replicas[i].quarantined.Store(false)
			}
		}
	}
	// Resume picks the clock up where the journal left off: every
	// lane starts at the last journaled instant, so FleetTicks keeps
	// counting across the crash.
	for i := range c.lanes {
		c.lanes[i] = last
	}
	return states, waveFails, haltedAt, finished
}

// committedAfterCrash classifies a torn-window replica: the journal
// shows a leased intent but no outcome, so the predecessor died between
// the lease and the outcome record and the step may or may not have
// committed. The replica's live text root decides, whatever the step
// did (disable or enable, transaction or live patch): the intent
// fingerprinted the expected root at lease, and every core commit
// reseals the expected root from the committed text. Live text still
// at the intent's root never committed and re-runs; live text at a new
// expected root committed; anything else is torn or corrupt text that
// a re-run would build on, so it is refused.
func committedAfterCrash(r *Replica, intentRoot uint32) (bool, error) {
	live, err := r.Cust.TextRoot()
	if err != nil {
		return false, err
	}
	att := r.Cust.Attestation()
	switch {
	case rootIdent(live) == intentRoot:
		return false, nil
	case live == att.Root:
		return true, nil
	}
	return false, fmt.Errorf("fleet: torn text on replica %d: live root %08x matches neither the intent's %08x nor the expected %08x — refusing to re-run the step; restore the replica from its pristine checkpoint",
		r.Index, rootIdent(live), intentRoot, rootIdent(att.Root))
}

// Run executes the rollout (or, after ResumeController, whatever of
// it the journal shows unfinished). The apply function is invoked at
// most once per leased attempt per replica and never for a replica
// the journal already proves committed. On an injected controller
// crash Run returns ErrControllerCrashed with the partial result; the
// journal is left for the next ResumeController.
func (c *Controller) Run(apply func(r *Replica) (core.Stats, error)) (*RolloutResult, error) {
	f := c.f
	res := &RolloutResult{Outcomes: make([]ReplicaOutcome, len(f.replicas))}
	for i := range res.Outcomes {
		res.Outcomes[i].Index = i
	}
	res.Resumed = c.resumed

	waves := f.waves()
	waveFails := map[int]int{}
	haltedAt := -1
	finished := false
	var states []priorState

	// The halt belongs to its rollout: an earlier rollout's halt does
	// not carry over, and a resume halts only if its journal did.
	f.halted.Store(false)
	if c.resumed {
		states, waveFails, haltedAt, finished = c.replay(res)
	}
	if !c.hasStart {
		if !c.append(Record{Kind: RecStart, Replica: int32(len(f.replicas)),
			Wave: int32(len(waves)), Attempt: int32(f.cfg.Workers)}) {
			return c.finish(res)
		}
		c.hasStart = true
	}

	if c.resumed {
		// Committed replicas are skipped outright — the acceptance
		// invariant "resume never repeats a committed rewrite". Only an
		// open intent (no outcome journaled) is classified against the
		// replica's live text root.
		for i := range states {
			st := &states[i]
			if st.resolved {
				res.Outcomes[i] = st.outcome
				res.Outcomes[i].Index = i
				if st.outcome.Outcome == OutcomeCommitted {
					res.SkippedCommitted++
					f.obs.Point("fleet.resume.skip", int64(i))
					c.emit(StepEvent{Kind: "skip", Replica: i, Wave: st.wave, Outcome: OutcomeCommitted, VClock: c.lanes[0]})
				}
				continue
			}
			if st.openIntent {
				committed, err := committedAfterCrash(f.replicas[i], st.intentRoot)
				if err != nil {
					return res, fmt.Errorf("fleet: resume cannot classify replica %d (torn journal window): %w", i, err)
				}
				if committed {
					// The rewrite committed but its outcome record died
					// with the controller: journal it now so the next
					// resume does not have to re-verify.
					res.Outcomes[i].Outcome = OutcomeCommitted
					res.Outcomes[i].Ticks = 1
					res.SkippedCommitted++
					f.obs.Point("fleet.resume.skip", int64(i))
					c.emit(StepEvent{Kind: "skip", Replica: i, Wave: st.wave, Outcome: OutcomeCommitted, VClock: c.lanes[0]})
					if !c.append(Record{Kind: RecOutcome, Replica: int32(i), Wave: int32(st.wave),
						Outcome: OutcomeCommitted, Ticks: 1, VClock: c.lanes[0],
						Note: "verified-after-crash"}) {
						return c.finish(res)
					}
				}
				// Not committed: core's transaction left the replica
				// untouched (or rolled back); the step simply re-runs.
			}
		}
		if !c.append(Record{Kind: RecResume, Replica: int32(res.SkippedCommitted), VClock: c.lanes[0]}) {
			return c.finish(res)
		}
		c.emit(StepEvent{Kind: "resume", Replica: -1, VClock: c.lanes[0]})
		f.obs.Point("fleet.resume", int64(res.SkippedCommitted))
		// Replicas the journal shows quarantined are re-attested before
		// the resumed rollout proceeds: clean (or repaired-clean) text
		// readmits them, anything else stays drained.
		c.readmitQuarantined()
		if c.isCrashed() {
			return c.finish(res)
		}
	}

	if finished {
		// The predecessor completed the rollout and died after its
		// done record: nothing to run, reconstruct and return.
		return c.reconstruct(res, waves, waveFails, haltedAt)
	}

	if haltedAt >= 0 {
		// The predecessor died inside the halt protocol: finish it —
		// every committed replica of the halted wave restores to
		// pristine — and close the journal. Waves completed before the
		// halt are reconstructed from their journal summaries.
		for wi := 0; wi < haltedAt && wi < len(waves); wi++ {
			if fails, ok := waveFails[wi]; ok {
				res.Waves = append(res.Waves, WaveResult{
					Index: wi, Canary: wi == 0,
					Replicas: append([]int(nil), waves[wi]...),
					Failures: fails,
				})
			}
		}
		c.completeHalt(res, waves[haltedAt], haltedAt)
		res.Halted, res.HaltedWave = true, haltedAt
		return c.finish(res)
	}

	for wi, wave := range waves {
		if fails, ok := waveFails[wi]; ok {
			// Wave fully resolved before the crash.
			res.Waves = append(res.Waves, WaveResult{
				Index: wi, Canary: wi == 0,
				Replicas: append([]int(nil), wave...),
				Failures: fails,
			})
			continue
		}
		if f.halted.Load() || c.isCrashed() {
			break
		}
		f.obs.PhaseStart("fleet.wave", wi)
		c.runWave(wi, wave, res, apply)
		if c.isCrashed() {
			f.obs.PhaseEnd("fleet.wave", wi, ErrControllerCrashed)
			break
		}

		fails := 0
		for _, ri := range wave {
			o := res.Outcomes[ri].Outcome
			if o != OutcomeCommitted && o != OutcomePending {
				fails++
			}
		}
		wr := WaveResult{Index: wi, Canary: wi == 0, Replicas: append([]int(nil), wave...), Failures: fails}
		res.Waves = append(res.Waves, wr)
		halt := fails > 0

		// Second-chance recovery: a replica whose own rollback failed
		// is dead, but its pristine checkpoint survives in the store.
		for _, ri := range wave {
			if res.Outcomes[ri].Outcome == OutcomeLost {
				c.restoreJournaled(&res.Outcomes[ri], wi)
			}
		}

		if halt {
			f.halted.Store(true)
			res.Halted = true
			res.HaltedWave = wi
			f.obs.Point("fleet.halt", int64(wi))
			c.emit(StepEvent{Kind: "halt", Replica: -1, Wave: wi, VClock: c.laneMax()})
			if !c.append(Record{Kind: RecHalt, Wave: int32(wi), VClock: c.laneMax()}) {
				f.obs.PhaseEnd("fleet.wave", wi, ErrControllerCrashed)
				break
			}
			// Un-commit the failed wave: a wave with a failed replica
			// does not stay half-deployed.
			c.completeHalt(res, wave, wi)
			f.obs.PhaseEnd("fleet.wave", wi, fmt.Errorf("wave %d: %d/%d failed, rollout halted", wi, fails, len(wave)))
			break
		}
		if !c.append(Record{Kind: RecWaveDone, Wave: int32(wi), Attempt: int32(fails), VClock: c.laneMax()}) {
			f.obs.PhaseEnd("fleet.wave", wi, ErrControllerCrashed)
			break
		}
		// Wave barrier: the next wave starts after the slowest lane.
		c.syncLanes()
		f.obs.PhaseEnd("fleet.wave", wi, nil)

		if f.cfg.Scrub {
			// Anti-entropy boundary: sweep the whole active fleet, not
			// just this wave — silent corruption does not wait its turn.
			sw := c.AttestSweep(wi)
			res.Sweeps = append(res.Sweeps, *sw)
			if c.isCrashed() {
				break
			}
		}
	}

	return c.finish(res)
}

// runWave drains one wave's step queue through the worker lanes.
func (c *Controller) runWave(wi int, wave []int, res *RolloutResult, apply func(r *Replica) (core.Stats, error)) {
	f := c.f
	var pending []*step
	for _, ri := range wave {
		if res.Outcomes[ri].Outcome != OutcomePending {
			continue
		}
		if f.replicas[ri].Quarantined() {
			// Drained by an earlier sweep: the replica takes no rollout
			// steps until re-attestation readmits it.
			f.obs.Point("fleet.step.skip.quarantined", int64(ri))
			continue
		}
		pending = append(pending, &step{replica: ri, wave: wi, attempt: 1})
	}

	for len(pending) > 0 && !c.isCrashed() && !f.halted.Load() {
		// Lease one step per lane, earliest-free lane first — list
		// scheduling over the virtual-time lanes. Steps are ordered by
		// (backoff gate, replica index) so dispatch is deterministic.
		sort.SliceStable(pending, func(i, j int) bool {
			if pending[i].notBefore != pending[j].notBefore {
				return pending[i].notBefore < pending[j].notBefore
			}
			return pending[i].replica < pending[j].replica
		})
		laneOrder := make([]int, len(c.lanes))
		for i := range laneOrder {
			laneOrder[i] = i
		}
		sort.SliceStable(laneOrder, func(i, j int) bool {
			return c.lanes[laneOrder[i]] < c.lanes[laneOrder[j]]
		})
		var round []*lease
		for _, li := range laneOrder {
			if len(pending) == 0 {
				break
			}
			st := pending[0]
			pending = pending[1:]
			start := c.lanes[li]
			if st.notBefore > start {
				start = st.notBefore // the lane idles until the backoff gate opens
			}
			round = append(round, &lease{step: st, lane: li, start: start, deadline: start + leaseTicks})
		}

		// Journal the round's intents in lane order, then decide which
		// workers die at the fleet.lease.expire site — both in the
		// dispatch thread, so order and journal bytes stay
		// deterministic under concurrency.
		for _, l := range round {
			if !c.append(Record{Kind: RecIntent, Replica: int32(l.step.replica), Wave: int32(wi),
				Attempt: int32(l.step.attempt), Ident: expectedIdent(f.replicas[l.step.replica]), VClock: l.start}) {
				return
			}
			f.obs.Point("fleet.step.lease", int64(l.step.replica))
			c.emit(StepEvent{Kind: "lease", Replica: l.step.replica, Wave: wi, Attempt: l.step.attempt, VClock: l.start})
		}
		if h := f.cfg.FaultHook; h != nil {
			for _, l := range round {
				if err := h.Fault(faultinject.SiteFleetLeaseExpire, l.step.replica); err != nil {
					l.died = true
				}
			}
		}

		// Run the surviving leases concurrently for real.
		var wg sync.WaitGroup
		for _, l := range round {
			if l.died {
				continue
			}
			wg.Add(1)
			go func(l *lease) {
				defer wg.Done()
				c.execute(l, apply)
			}(l)
		}
		wg.Wait()

		// Commit the round in lane order.
		for _, l := range round {
			ri := l.step.replica
			if l.died {
				// The worker never reported back; its lease expires at
				// the deadline and the step requeues with backoff —
				// or fails for good once the budget is spent.
				c.lanes[l.lane] = l.deadline
				res.LeaseExpiries++
				f.obs.Point("fleet.lease.expired", int64(ri))
				c.emit(StepEvent{Kind: "expire", Replica: ri, Wave: wi, Attempt: l.step.attempt, VClock: l.deadline})
				if l.step.attempt >= retryBudget {
					out := &res.Outcomes[ri]
					out.Outcome = OutcomeFailed
					out.Err = fmt.Errorf("fleet: replica %d lease expired %d times, retry budget exhausted", ri, l.step.attempt)
					out.Ticks = 1
					c.emit(StepEvent{Kind: "budget-exhausted", Replica: ri, Wave: wi, Attempt: l.step.attempt, VClock: l.deadline})
					if !c.append(Record{Kind: RecOutcome, Replica: int32(ri), Wave: int32(wi), Attempt: int32(l.step.attempt),
						Outcome: OutcomeFailed, Ticks: 1, VClock: l.deadline,
						Note: "lease retry budget exhausted"}) {
						return
					}
					continue
				}
				backoff := backoffBase << (l.step.attempt - 1)
				if backoff > backoffCap {
					backoff = backoffCap
				}
				l.step.attempt++
				l.step.notBefore = l.deadline + backoff
				pending = append(pending, l.step)
				res.Requeues++
				f.obs.Point("fleet.step.requeue", int64(ri))
				c.emit(StepEvent{Kind: "requeue", Replica: ri, Wave: wi, Attempt: l.step.attempt, VClock: l.step.notBefore})
				continue
			}

			res.Outcomes[ri] = l.out
			c.lanes[l.lane] = l.start + l.out.Ticks
			f.obs.Point("fleet.step.outcome", int64(ri))
			mode := stepMode(l.out.Stats)
			c.emit(StepEvent{Kind: "outcome", Replica: ri, Wave: wi, Attempt: l.step.attempt,
				Outcome: l.out.Outcome, Mode: mode, VClock: c.lanes[l.lane]})
			note := ""
			if l.out.Err != nil {
				note = l.out.Err.Error()
			}
			if !c.append(Record{Kind: RecOutcome, Replica: int32(ri), Wave: int32(wi), Attempt: int32(l.step.attempt),
				Outcome: l.out.Outcome, Ticks: l.out.Ticks, Ident: l.ident, VClock: c.lanes[l.lane],
				Mode: mode, Note: note}) {
				return
			}
		}
	}
}

// execute runs one leased rewrite on its replica (worker side). Only
// this lease's own fields and the replica's private state are
// touched; the dispatcher reads them back after the round barrier.
func (c *Controller) execute(l *lease, apply func(r *Replica) (core.Stats, error)) {
	r := c.f.replicas[l.step.replica]
	out := &l.out
	out.Index = r.Index
	before := r.Machine.Clock()
	var err error
	if err = r.Machine.Fault(faultinject.SiteFleetWave, r.Index); err != nil {
		out.Outcome, out.Err = OutcomeAborted, err
	} else {
		c.mu.Lock()
		c.attempts[r.Index]++
		c.mu.Unlock()
		out.Stats, err = apply(r)
		out.Err = err
		switch {
		case err == nil:
			out.Outcome = OutcomeCommitted
		case errors.Is(err, core.ErrAborted):
			out.Outcome = OutcomeAborted
		case errors.Is(err, core.ErrRollbackFailed):
			out.Outcome = OutcomeLost
		case errors.Is(err, core.ErrRolledBack):
			out.Outcome = OutcomeRolledBack
		default:
			out.Outcome = OutcomeFailed
		}
	}
	if out.Outcome == OutcomeCommitted {
		// The outcome record carries the committed text root's
		// fingerprint, read from the resealed oracle; no page is hashed.
		l.ident = expectedIdent(r)
	}
	out.Ticks = r.Machine.Clock() - before
	if out.Ticks == 0 {
		out.Ticks = 1
	}
}

// restoreJournaled rebuilds a replica from its pristine checkpoint in
// the shared store and journals the result, so a crash between
// restores is resumable. The set is materialized once: store rot is
// persistent, so a second Materialize could only fail the same way.
// On success the replica's customizer is rebound to the restored root
// and Err is cleared (a restored replica is healthy); RestoreImages'
// failed tries are kept in RestoreErrs.
func (c *Controller) restoreJournaled(out *ReplicaOutcome, wave int) {
	r := c.f.replicas[out.Index]
	set, err := c.f.store.Materialize(r.PristineID)
	out.RestoreErrs = nil
	if err == nil {
		out.RestoreErrs, err = r.Cust.RestoreImages(set)
	}
	note := ""
	if err != nil {
		out.Outcome = OutcomeLost
		out.Err = fmt.Errorf("fleet: replica %d pristine restore failed: %w", out.Index, err)
		note = out.Err.Error()
	} else {
		out.Outcome = OutcomeRestored
		out.Err = nil
		c.f.obs.Point("fleet.rollback", int64(out.Index))
	}
	c.append(Record{Kind: RecOutcome, Replica: int32(out.Index), Wave: int32(wave),
		Outcome: out.Outcome, Ticks: out.Ticks, VClock: c.laneMax(), Note: note})
}

// completeHalt runs (or, on resume, finishes) the halt protocol for
// the halted wave: every replica the journal or this run shows
// committed is restored to its pristine checkpoint.
func (c *Controller) completeHalt(res *RolloutResult, wave []int, wi int) {
	for _, ri := range wave {
		if c.isCrashed() {
			return
		}
		if res.Outcomes[ri].Outcome == OutcomeCommitted {
			c.restoreJournaled(&res.Outcomes[ri], wi)
		}
	}
}

// laneMax returns the latest lane time — the rollout's makespan so far.
func (c *Controller) laneMax() uint64 {
	var m uint64
	for _, l := range c.lanes {
		if l > m {
			m = l
		}
	}
	return m
}

// syncLanes applies a wave barrier: every lane advances to the
// slowest lane's time before the next wave leases.
func (c *Controller) syncLanes() {
	m := c.laneMax()
	for i := range c.lanes {
		c.lanes[i] = m
	}
}

// finish computes the rollout's cost model and closes the journal.
// SerialTicks sums every attempted step's virtual cost (the one-lane
// makespan); FleetTicks is the latest lane time — what the leased
// worker lanes actually paid, wave barriers, lease expiries and
// backoff waits included.
func (c *Controller) finish(res *RolloutResult) (*RolloutResult, error) {
	c.mu.Lock()
	for i := range res.Outcomes {
		res.Outcomes[i].Attempts = c.attempts[i]
		if res.Outcomes[i].Outcome != OutcomePending {
			res.SerialTicks += res.Outcomes[i].Ticks
		}
	}
	c.mu.Unlock()
	res.FleetTicks = c.laneMax()
	if c.isCrashed() {
		return res, ErrControllerCrashed
	}
	c.f.obs.Point("fleet.rollout.done", int64(res.Committed()))
	c.append(Record{Kind: RecDone, Replica: int32(res.Committed()), VClock: res.FleetTicks})
	return res, nil
}

// reconstruct rebuilds a finished rollout's result from its journal
// (the predecessor died after writing its done record).
func (c *Controller) reconstruct(res *RolloutResult, waves [][]int, waveFails map[int]int, haltedAt int) (*RolloutResult, error) {
	for wi, wave := range waves {
		fails, ok := waveFails[wi]
		if !ok {
			if wi == haltedAt || (haltedAt >= 0 && wi > haltedAt) {
				break
			}
			continue
		}
		res.Waves = append(res.Waves, WaveResult{
			Index: wi, Canary: wi == 0,
			Replicas: append([]int(nil), wave...),
			Failures: fails,
		})
	}
	if haltedAt >= 0 {
		res.Halted, res.HaltedWave = true, haltedAt
	}
	for i := range res.Outcomes {
		if res.Outcomes[i].Outcome != OutcomePending {
			res.SerialTicks += res.Outcomes[i].Ticks
		}
	}
	res.FleetTicks = c.laneMax()
	return res, nil
}
