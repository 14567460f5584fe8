// Package fleet scales dynamic customization from one guest to N: a
// Fleet owns N replica machines spawned by copy-on-write cloning of a
// single booted template, shares their pristine checkpoints through a
// content-addressed page store (so N replicas cost ~1 guest of blob
// storage), and applies a rewrite across the fleet as a staged
// rollout — canary shards first, then waves — halting and restoring
// pristine state when any replica of a wave fails.
//
// The invariant the rollout maintains is per-replica atomicity lifted
// to the fleet: every replica ends a rollout either committed to the
// new version or running its pristine checkpoint. There is no torn
// state in between — core.Rewrite's transaction guarantees it per
// replica, and the halt path restores from the shared store whatever
// a replica's own rollback could not recover.
package fleet

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/dynacut/dynacut/internal/core"
	"github.com/dynacut/dynacut/internal/criu"
	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/kernel"
	"github.com/dynacut/dynacut/internal/obs"
)

// Fleet errors.
var (
	// ErrHalted aborts in-flight rewrites once the rollout has halted;
	// it surfaces wrapped in core.ErrAborted.
	ErrHalted = errors.New("fleet: rollout halted")
	// ErrNoReplicas rejects a config without replicas.
	ErrNoReplicas = errors.New("fleet: config needs at least one replica")
)

// Config sizes and tunes a fleet.
type Config struct {
	// Replicas is the fleet size (required, >= 1).
	Replicas int
	// Workers bounds how many rewrites run concurrently within a wave
	// and sets the lane count of the virtual-time makespan model
	// (0 = 4). Workers 1 is the serial baseline.
	Workers int
	// CanaryShards is the size of the first wave (0 = 1, clamped to
	// Replicas). The canary wave must be fully healthy before the
	// remaining waves run: any canary failure halts the rollout.
	CanaryShards int
	// WaveSize is the batch size of the post-canary waves (0 = 4).
	// Any failed replica halts its wave.
	WaveSize int
	// Core is the per-replica customizer option template. Observer is
	// replaced with a per-replica observer; BeforeCommit is chained
	// after the fleet's halt check.
	Core core.Options
	// FaultHook, when non-nil, is installed on every replica machine
	// and consulted at the fleet.* sites — the chaos-testing harness.
	FaultHook kernel.FaultHook
	// Observer, when non-nil, receives the fleet-level timeline (wave
	// spans, halt/rollback points). nil allocates a private one.
	Observer *obs.Observer
	// OnStep, when non-nil, receives every scheduling event (lease,
	// expiry, requeue, outcome, skip, halt, crash) as the controller
	// dispatches — the incremental status stream.
	OnStep func(StepEvent)
	// Scrub enables the anti-entropy attestation sweep after every
	// wave: each active replica's live text root is collected and
	// compared against its expected-state oracle, diverged pages are
	// repaired in place, and replicas that exhaust RepairBudget are
	// quarantined (drained from later waves, journaled, re-attested on
	// resume before readmission).
	Scrub bool
	// RepairBudget bounds in-place repair attempts per replica per
	// sweep before quarantine (0 = 3).
	RepairBudget int
}

// StepMode is the rewrite path one rollout step actually took, derived
// from its core.Stats and journaled on outcome records only.
type StepMode uint8

const (
	// ModeTransaction: the full checkpoint → edit → restore cycle.
	ModeTransaction StepMode = iota
	// ModeLivePatch: the zero-downtime live-patch fast path.
	ModeLivePatch
	// ModeFellBack: the step asked for a live patch but fell back to
	// the checkpoint transaction.
	ModeFellBack
)

func (m StepMode) String() string {
	switch m {
	case ModeTransaction:
		return "transaction"
	case ModeLivePatch:
		return "live-patch"
	case ModeFellBack:
		return "fell-back"
	default:
		return fmt.Sprintf("StepMode(%d)", int(m))
	}
}

// stepMode is the mode a step took, read from its rewrite stats.
func stepMode(s core.Stats) StepMode {
	switch {
	case s.LivePatched:
		return ModeLivePatch
	case s.FellBack:
		return ModeFellBack
	default:
		return ModeTransaction
	}
}

// Replica is one fleet member: an independent machine cloned from the
// template, its customizer, its observer, and its pristine anchor in
// the shared page store.
type Replica struct {
	Index   int
	Machine *kernel.Machine
	Cust    *core.Customizer
	Obs     *obs.Observer
	// PristineID is the replica's pristine checkpoint in the fleet's
	// shared page store — the rollback anchor of the staged rollout.
	PristineID [sha256.Size]byte

	// quarantined drains the replica from waves and sweeps after its
	// repair budget was exhausted; set and cleared only through the
	// journaled quarantine/readmit protocol.
	quarantined atomic.Bool
}

// Quarantined reports whether the replica is drained from the fleet
// pending re-attestation.
func (r *Replica) Quarantined() bool { return r.quarantined.Load() }

// Outcome classifies where a replica ended up after a rollout.
type Outcome int

const (
	// OutcomePending: the replica's wave never ran (halt upstream);
	// the guest is untouched on the old version.
	OutcomePending Outcome = iota
	// OutcomeCommitted: the rewrite committed; new version.
	OutcomeCommitted
	// OutcomeAborted: the rewrite stopped pre-commit (halt arrived or
	// the wave fault site fired); the guest is untouched.
	OutcomeAborted
	// OutcomeFailed: the rewrite failed before its commit point (bad
	// dump, corrupt image, failed edit); the guest is untouched.
	OutcomeFailed
	// OutcomeRolledBack: the rewrite failed past the commit point and
	// core restored the pre-edit images; old version, connections kept.
	OutcomeRolledBack
	// OutcomeRestored: the fleet restored the replica's pristine
	// checkpoint from the shared store (halt path, or recovery of a
	// replica whose own rollback failed).
	OutcomeRestored
	// OutcomeLost: unrecoverable — both core's rollback and the
	// store-based restore failed.
	OutcomeLost
)

func (o Outcome) String() string {
	switch o {
	case OutcomePending:
		return "pending"
	case OutcomeCommitted:
		return "committed"
	case OutcomeAborted:
		return "aborted"
	case OutcomeFailed:
		return "failed"
	case OutcomeRolledBack:
		return "rolled-back"
	case OutcomeRestored:
		return "restored"
	case OutcomeLost:
		return "lost"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// ReplicaOutcome is one replica's rollout result.
type ReplicaOutcome struct {
	Index   int
	Outcome Outcome
	// Stats is the core rewrite cost (zero if the rewrite never ran).
	Stats core.Stats
	// Ticks is the virtual time the replica's machine spent in the
	// rollout (floored at 1 for an attempted replica, so makespan
	// math never degenerates).
	Ticks uint64
	// Err is the rewrite or recovery failure. It is nil whenever the
	// replica ended healthy — committed, or successfully restored to
	// pristine (even when earlier restore tries failed; see
	// RestoreErrs for that history).
	Err error
	// Attempts counts how many times the rollout payload actually ran
	// on this replica under this controller — the counter the resume
	// tests use to prove committed replicas are never re-rewritten.
	Attempts int
	// RestoreErrs is the retry history of the pristine-restore path:
	// one error per failed try that a later try recovered from. A
	// replica restored on the first try has none.
	RestoreErrs []error
}

// WaveResult summarizes one wave.
type WaveResult struct {
	Index    int
	Canary   bool
	Replicas []int
	Failures int
}

// RolloutResult is the fleet-level outcome of one staged rollout.
type RolloutResult struct {
	Waves    []WaveResult
	Outcomes []ReplicaOutcome
	// Halted reports that a wave had a failed replica:
	// its committed replicas were restored to pristine and all later
	// waves were cancelled. HaltedWave is that wave's index.
	Halted     bool
	HaltedWave int
	// SerialTicks is the summed virtual-time cost of the attempted
	// rewrites — the makespan a one-lane rollout would pay.
	// FleetTicks is the makespan the controller's worker lanes paid
	// on the fleet's shared virtual-time axis: list scheduling over
	// the lanes, wave barriers, lease expiries and backoff waits
	// included.
	SerialTicks uint64
	FleetTicks  uint64
	// Resumed reports this result came from a journal-resumed
	// controller; SkippedCommitted is how many replicas it skipped
	// because the journal proved them committed.
	Resumed          bool
	SkippedCommitted int
	// LeaseExpiries / Requeues count worker leases that expired on
	// the virtual clock and the steps requeued with backoff.
	LeaseExpiries int
	Requeues      int
	// Sweeps holds the per-wave attestation sweep results (Config.Scrub
	// rollouts only), in wave order.
	Sweeps []SweepResult
}

// Committed counts replicas that ended on the new version.
func (r *RolloutResult) Committed() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Outcome == OutcomeCommitted {
			n++
		}
	}
	return n
}

// Fleet is a set of replica guests rewritten as one unit.
type Fleet struct {
	cfg      Config
	store    *criu.PageStore
	replicas []*Replica
	obs      *obs.Observer
	// halted latches the halt of the rollout in progress: the
	// pre-commit gate aborts and no later wave starts while it is set.
	// Controller.Run clears it when a rollout starts, and a resumed
	// controller sets it again from the journal's RecHalt.
	halted atomic.Bool
}

// New clones the template machine into cfg.Replicas independent
// replicas and deposits each replica's pristine checkpoint into one
// shared content-addressed page store. The template must hold a
// booted guest rooted at rootPID; it is left untouched and is not
// part of the fleet. Host-side instrumentation is per-replica: each
// clone gets its own observer and customizer, plus cfg.FaultHook if
// set.
func New(template *kernel.Machine, rootPID int, cfg Config) (*Fleet, error) {
	if cfg.Replicas < 1 {
		return nil, ErrNoReplicas
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.CanaryShards <= 0 {
		cfg.CanaryShards = 1
	}
	if cfg.CanaryShards > cfg.Replicas {
		cfg.CanaryShards = cfg.Replicas
	}
	if cfg.WaveSize <= 0 {
		cfg.WaveSize = 4
	}
	f := &Fleet{cfg: cfg, store: criu.NewPageStore(), obs: cfg.Observer}
	if f.obs == nil {
		f.obs = obs.New(obs.DefaultCapacity)
	}
	if cfg.FaultHook != nil {
		// The shared store participates in chaos runs too: the
		// criu.store.rot site silently corrupts a blob in place on read.
		f.store.SetFaultHook(cfg.FaultHook)
	}

	f.obs.PhaseStart("fleet.spawn", 0)
	for i := 0; i < cfg.Replicas; i++ {
		if cfg.FaultHook != nil {
			if err := cfg.FaultHook.Fault(faultinject.SiteFleetClone, i); err != nil {
				err = fmt.Errorf("fleet: cloning replica %d: %w", i, err)
				f.obs.PhaseEnd("fleet.spawn", 0, err)
				return nil, err
			}
		}
		m := template.Clone()
		if cfg.FaultHook != nil {
			m.SetFaultHook(cfg.FaultHook)
		}
		ro := obs.New(obs.DefaultCapacity)
		m.SetObserver(ro)

		opts := cfg.Core
		opts.Observer = ro
		// All replicas seal their attestation oracles into the fleet's
		// shared content-addressed store: N identical guests' text
		// deposits dedup to one, and any replica's repair can source
		// expected bytes another replica deposited.
		opts.AttestStore = f.store
		userBC := cfg.Core.BeforeCommit
		opts.BeforeCommit = func(attempt int) error {
			if f.halted.Load() {
				return ErrHalted
			}
			if userBC != nil {
				return userBC(attempt)
			}
			return nil
		}
		cust, err := core.New(m, rootPID, opts)
		if err != nil {
			f.obs.PhaseEnd("fleet.spawn", 0, err)
			return nil, fmt.Errorf("fleet: replica %d customizer: %w", i, err)
		}
		pristine, err := cust.Checkpoint()
		if err != nil {
			f.obs.PhaseEnd("fleet.spawn", 0, err)
			return nil, fmt.Errorf("fleet: replica %d pristine checkpoint: %w", i, err)
		}
		ident, err := f.store.Deposit(pristine)
		if err != nil {
			f.obs.PhaseEnd("fleet.spawn", 0, err)
			return nil, fmt.Errorf("fleet: replica %d deposit: %w", i, err)
		}
		f.replicas = append(f.replicas, &Replica{
			Index: i, Machine: m, Cust: cust, Obs: ro,
			PristineID: ident,
		})
	}
	f.obs.PhaseEnd("fleet.spawn", 0, nil)
	st := f.store.Stats()
	f.obs.Add("fleet.replicas", int64(len(f.replicas)))
	f.obs.SetGauge("fleet.store.bytes", int64(st.StoredBytes))
	f.obs.SetGauge("fleet.store.pages", int64(st.UniquePages))
	return f, nil
}

// Replicas returns the fleet members in index order.
func (f *Fleet) Replicas() []*Replica { return append([]*Replica(nil), f.replicas...) }

// Active returns the fleet members currently serving — every replica
// not quarantined by the attestation sweep. This is the set a load
// balancer should route to.
func (f *Fleet) Active() []*Replica {
	var out []*Replica
	for _, r := range f.replicas {
		if !r.Quarantined() {
			out = append(out, r)
		}
	}
	return out
}

// Store returns the shared content-addressed page store.
func (f *Fleet) Store() *criu.PageStore { return f.store }

// waves slices the replica indices into the canary wave followed by
// batches of WaveSize.
func (f *Fleet) waves() [][]int {
	var out [][]int
	idx := make([]int, len(f.replicas))
	for i := range idx {
		idx[i] = i
	}
	c := f.cfg.CanaryShards
	out = append(out, idx[:c])
	for lo := c; lo < len(idx); lo += f.cfg.WaveSize {
		hi := lo + f.cfg.WaveSize
		if hi > len(idx) {
			hi = len(idx)
		}
		out = append(out, idx[lo:hi])
	}
	return out
}

// Rollout applies one rewrite across the fleet as a staged rollout:
// the canary wave first, then the remaining replicas in waves, each
// wave's steps leased to concurrent worker lanes by the rollout
// controller. A wave with any failed replica halts the rollout: the
// failed wave's committed replicas are restored to their pristine
// checkpoints from the shared store, in-flight rewrites abort at the
// pre-commit gate, and later waves never start. Replicas whose own
// rollback failed are restored from the store even when the rollout
// is not halting — the fleet's second-chance recovery. apply runs
// once per leased attempt per replica and must touch only that
// replica's state.
//
// Rollout is sugar for NewController(f, nil).Run(apply): every
// rollout is journaled, and on an injected controller crash the
// returned error is ErrControllerCrashed. Use NewController directly
// to keep the journal for ResumeController.
func (f *Fleet) Rollout(apply func(r *Replica) (core.Stats, error)) (*RolloutResult, error) {
	return NewController(f, nil).Run(apply)
}

// Timeline merges the fleet-level event stream with every replica's,
// each replica's events tagged "r<i>/", ordered on the shared virtual
// clock. This is the one-pane-of-glass view of a rollout: wave spans
// interleaved with each replica's checkpoint/edit/restore phases.
func (f *Fleet) Timeline() []obs.Event {
	streams := [][]obs.Event{f.obs.Events()}
	for _, r := range f.replicas {
		streams = append(streams, obs.Tag(r.Obs.Events(), fmt.Sprintf("r%d/", r.Index)))
	}
	return obs.MergeTimelines(streams...)
}
