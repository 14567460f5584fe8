// Package supervise closes DynaCut's adaptation loop (§3.3): a
// deterministic, virtual-clock-driven controller that owns a
// core.Customizer and keeps a customized guest healthy without an
// operator watching. Attached to a kernel.Machine via the tick
// watchdog, the supervisor wakes between scheduler rounds and:
//
//   - polls the injected handler's trap counter and false-removal log,
//     adopting addresses the in-guest verifier healed (§3.2.3) and
//     charging them as strikes against the feature that owned them;
//   - runs a canary probe on a configurable cadence with a virtual-time
//     deadline and bounded exponential backoff after failures;
//   - keeps a per-feature circuit breaker (closed → open → half-open):
//     a feature whose removal keeps misfiring is force re-enabled and
//     quarantined from DisableFeature until its probation — doubling
//     with every trip — expires;
//   - detects trap storms (trap rate over a sliding virtual-time
//     window) and walks a graceful-degradation ladder: heal individual
//     addresses → re-enable the worst feature → re-enable everything
//     and disarm patching → attest and scrub diverged text in place →
//     restore the last-good pristine images.
//
// Everything is driven by the machine's virtual clock and the
// deterministic fault injector, so a supervised chaos run replays
// byte-identically from (seed, plan).
package supervise

import (
	"errors"
	"fmt"

	"github.com/dynacut/dynacut/internal/core"
	"github.com/dynacut/dynacut/internal/coverage"
	"github.com/dynacut/dynacut/internal/criu"
	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/kernel"
	"github.com/dynacut/dynacut/internal/obs"
)

// Supervisor errors.
var (
	// ErrDisarmed: the degradation ladder reached rung 3 (or beyond)
	// and switched patching off; DisableFeature refuses from then on.
	ErrDisarmed = errors.New("supervise: patching disarmed by degradation ladder")
	// ErrQuarantined: the feature's breaker is open and its probation
	// has not expired yet.
	ErrQuarantined = errors.New("supervise: feature quarantined by open circuit breaker")
	// ErrGuestLost: the final rung — restoring the last-good images —
	// failed every try of Customizer.RestoreImages; the guest is gone.
	ErrGuestLost = errors.New("supervise: guest lost (pristine restore failed)")
	// ErrNotAttached: the supervisor has no last-good snapshot yet.
	ErrNotAttached = errors.New("supervise: supervisor not attached")
)

// BreakerState is the per-feature circuit-breaker state.
type BreakerState int

// Breaker states. Closed admits DisableFeature; Open quarantines the
// feature until probation expires; HalfOpen admits one trial
// re-disable whose failure reopens the breaker with doubled probation.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// Breaker is one feature's circuit-breaker ledger.
type Breaker struct {
	State BreakerState
	// Strikes counts failures charged since the breaker last left the
	// open state (verifier reverts, canary failures, failed disables).
	Strikes int
	// Trips counts how many times the breaker has opened; it drives
	// the exponential probation.
	Trips int
	// OpenedAt is the virtual-clock instant of the last trip.
	OpenedAt uint64
	// Probation is how many virtual ticks the feature stays
	// quarantined after OpenedAt (doubles per trip, capped).
	Probation uint64

	trialAt uint64 // when half-open: virtual instant the trial began
}

// Config tunes the supervisor. The zero value of every field selects
// a sensible default; only Canary has no default (nil = no probing).
type Config struct {
	// PollEvery is the supervisor's wake-up cadence in virtual ticks
	// (the tick-watchdog period).
	PollEvery uint64
	// Canary, when non-nil, is the end-to-end health probe (Session's
	// Canary helper wires a request/response check through it).
	Canary func() error
	// CanaryEvery is the probe cadence in virtual ticks.
	CanaryEvery uint64
	// CanaryBackoff is the first retry delay after a failed probe;
	// it doubles per consecutive failure up to CanaryBackoffMax.
	CanaryBackoff    uint64
	CanaryBackoffMax uint64
	// BreakerThreshold is how many strikes open a closed breaker.
	BreakerThreshold int
	// Probation is the first quarantine length after a breaker trip;
	// it doubles with every further trip up to ProbationMax.
	Probation    uint64
	ProbationMax uint64
	// StormWindow and StormThreshold define a trap storm: at least
	// StormThreshold handler hits within the last StormWindow ticks.
	StormWindow    uint64
	StormThreshold uint64
	// CalmWindow is how long the guest must stay trap-free before the
	// degradation level decays back to normal and half-open breakers
	// close. 0 = StormWindow.
	CalmWindow uint64
	// Observer receives supervise.* spans and points. nil = silent.
	Observer *obs.Observer
}

// Defaults for Config zero values. The scales match the simulated
// guests, where booting a server costs ~2k virtual ticks and serving
// one request costs ~100: the supervisor wakes about once per
// scheduler round, probes every few hundred ticks, and storms are
// judged over windows a handful of requests wide.
const (
	defaultPollEvery        = 64
	defaultCanaryEvery      = 512
	defaultBreakerThreshold = 3
	defaultProbation        = 2_048
	defaultStormWindow      = 512
	defaultStormThreshold   = 8
)

// canaryDeadline bounds the virtual time one probe may consume; a
// slower probe counts as a failure even if it succeeds.
const canaryDeadline = 10_000

func (c *Config) fillDefaults() {
	if c.PollEvery == 0 {
		c.PollEvery = defaultPollEvery
	}
	if c.CanaryEvery == 0 {
		c.CanaryEvery = defaultCanaryEvery
	}
	if c.CanaryBackoff == 0 {
		c.CanaryBackoff = c.CanaryEvery
	}
	if c.CanaryBackoffMax == 0 {
		c.CanaryBackoffMax = 8 * c.CanaryBackoff
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = defaultBreakerThreshold
	}
	if c.Probation == 0 {
		c.Probation = defaultProbation
	}
	if c.ProbationMax == 0 {
		c.ProbationMax = 8 * c.Probation
	}
	if c.StormWindow == 0 {
		c.StormWindow = defaultStormWindow
	}
	if c.StormThreshold == 0 {
		c.StormThreshold = defaultStormThreshold
	}
	if c.CalmWindow == 0 {
		c.CalmWindow = c.StormWindow
	}
}

// sample is one poll's trap delta at a virtual instant.
type sample struct{ at, hits uint64 }

// Supervisor is the closed-loop controller. Not safe for concurrent
// use: like the machine it supervises, it is single-threaded by
// design (determinism is the point).
type Supervisor struct {
	m    *kernel.Machine
	cust *core.Customizer
	cfg  Config

	attached bool
	busy     bool // a step is running; suppress reentrant steps

	// lastGood is the self-contained pristine image set taken at
	// Attach — the degradation ladder's final anchor. Restore only
	// reads it, so it serves every try.
	lastGood *criu.ImageSet

	breakers map[string]*Breaker
	order    []string // features in first-disable order, for blame

	lastHits uint64
	samples  []sample // sliding trap-rate window

	level     int // current degradation rung reached (0 = normal)
	calmSince uint64

	disarmed bool
	restored bool
	fatal    error

	nextCanaryAt uint64
	canaryFails  int
}

// Status is a point-in-time snapshot of the supervisor's ledger.
type Status struct {
	Attached    bool
	Level       int
	Disarmed    bool
	Restored    bool
	CanaryFails int
	// WindowHits is the trap count inside the current storm window.
	WindowHits uint64
	Breakers   map[string]Breaker
	// Err is non-nil only in the unrecoverable guest-lost state.
	Err error
}

// New builds a supervisor for the customizer's guest. Call Attach to
// snapshot the last-good images and start the closed loop.
func New(m *kernel.Machine, cust *core.Customizer, cfg Config) *Supervisor {
	cfg.fillDefaults()
	if cfg.Observer != nil && m.Observer() == nil {
		m.SetObserver(cfg.Observer)
	}
	return &Supervisor{
		m:        m,
		cust:     cust,
		cfg:      cfg,
		breakers: map[string]*Breaker{},
	}
}

// Attach snapshots the guest's current state as the last-good images
// and installs the supervisor on the machine's tick watchdog. The
// snapshot goes through Customizer.Checkpoint, which validates it
// against the machine. Attach before the first DisableFeature: the last-good anchor should be the full,
// known-healthy service.
func (s *Supervisor) Attach() error {
	if s.attached {
		return nil
	}
	set, err := s.cust.Checkpoint()
	if err != nil {
		return fmt.Errorf("supervise: attach: %w", err)
	}
	s.lastGood = set
	now := s.m.Clock()
	s.calmSince = now
	s.nextCanaryAt = now + s.cfg.CanaryEvery
	s.m.SetTickWatchdog(s.cfg.PollEvery, s.Step)
	s.attached = true
	s.point("supervise.attach", int64(s.lastGood.TotalBytes()))
	return nil
}

// Detach removes the supervisor from the machine's watchdog. The
// ledger (breakers, level, last-good images) is kept.
func (s *Supervisor) Detach() {
	if !s.attached {
		return
	}
	s.m.SetTickWatchdog(0, nil)
	s.attached = false
}

// Step runs one supervision round at virtual instant now. It is the
// tick-watchdog callback, exported so tests and demos can drive the
// loop by hand. Reentrant invocations (the step itself runs the
// machine: canary probes, rewrites, restores) are suppressed.
func (s *Supervisor) Step(now uint64) {
	if !s.attached || s.busy || s.fatal != nil {
		return
	}
	s.busy = true
	defer func() { s.busy = false }()

	delta := s.pollTraps(now)
	healed := s.healOnce(now)
	s.tendBreakers(now)
	s.runCanary(now)

	if delta == 0 && !healed {
		if s.level > 0 && !s.disarmed && !s.restored && now-s.calmSince >= s.cfg.CalmWindow {
			// A full calm window at a recoverable rung: back to normal.
			s.level = 0
			s.point("supervise.degrade.reset", 0)
		}
	} else {
		s.calmSince = now
	}

	if win := s.windowHits(now); win >= s.cfg.StormThreshold {
		s.samples = nil // the window restarts after the response
		s.point("supervise.storm", int64(win))
		if healed && s.level == 0 {
			// Healing is the ladder's first rung, and it just ran: give
			// adoption a chance to end the storm before escalating.
			s.level = 1
			s.point("supervise.degrade.heal", 0)
		} else {
			s.escalate(now)
		}
	}
}

// pollTraps reads the handler hit counter and appends the delta to
// the sliding window. Before any handler is injected there is nothing
// to poll.
func (s *Supervisor) pollTraps(now uint64) uint64 {
	hits, err := s.cust.TrapHits()
	if err != nil {
		return 0
	}
	var delta uint64
	if hits >= s.lastHits {
		delta = hits - s.lastHits
	} else {
		// The counter went backwards: a restore rewound guest memory.
		// Count the post-restore hits only.
		delta = hits
	}
	s.lastHits = hits
	if delta > 0 {
		s.samples = append(s.samples, sample{at: now, hits: delta})
	}
	s.evict(now)
	return delta
}

func (s *Supervisor) evict(now uint64) {
	keep := s.samples[:0]
	for _, sm := range s.samples {
		if now-sm.at <= s.cfg.StormWindow {
			keep = append(keep, sm)
		}
	}
	s.samples = keep
}

func (s *Supervisor) windowHits(now uint64) uint64 {
	var n uint64
	for _, sm := range s.samples {
		if now-sm.at <= s.cfg.StormWindow {
			n += sm.hits
		}
	}
	return n
}

// healOnce adopts the guest's false-removal log if it is non-empty:
// each healed address is accepted as wanted code and charged as a
// strike against the feature that owned it. A fault or error here
// leaves the log intact, so the next step retries.
func (s *Supervisor) healOnce(now uint64) bool {
	_, seen, err := s.cust.FalseRemovalsSeen()
	if err != nil || seen == 0 {
		return false
	}
	if s.cust.InHandler() {
		// A guest process is mid-SIGTRAP-handler: adoption would
		// compact the vtable under its in-progress scan. Defer to the
		// next step; the log persists.
		s.point("supervise.heal.defer", int64(seen))
		return false
	}
	if err := s.m.Fault(faultinject.SiteSuperviseHeal, int(seen)); err != nil {
		s.point("supervise.heal.fail", int64(seen))
		return false
	}
	// Ownership must be read before adoption drops the addresses from
	// the disabled bookkeeping.
	owned := s.cust.Disabled()
	end := s.span("supervise.heal")
	healed, err := s.cust.AdoptFalseRemovals()
	end(err)
	if err != nil {
		s.point("supervise.heal.fail", int64(seen))
		return false
	}
	for _, addr := range healed {
		if name, ok := featureOf(owned, addr); ok {
			s.strike(name, now)
		}
	}
	s.point("supervise.heal", int64(len(healed)))
	return len(healed) > 0
}

// featureOf finds the disabled feature whose block span contains addr.
func featureOf(disabled map[string][]coverage.AbsBlock, addr uint64) (string, bool) {
	for name, blocks := range disabled {
		for _, b := range blocks {
			if addr >= b.Addr && addr < b.Addr+b.Size {
				return name, true
			}
		}
	}
	return "", false
}

// tendBreakers advances breaker timers: open breakers past probation
// go half-open (the next DisableFeature is the trial), and half-open
// breakers whose trial survived a calm window close.
func (s *Supervisor) tendBreakers(now uint64) {
	for _, name := range s.order {
		br := s.breakers[name]
		switch br.State {
		case BreakerOpen:
			if now-br.OpenedAt >= br.Probation {
				br.State = BreakerHalfOpen
				br.trialAt = now
				br.Strikes = 0
				s.point("supervise.breaker.halfopen", int64(br.Trips))
			}
		case BreakerHalfOpen:
			if br.Strikes == 0 && now-br.trialAt >= s.cfg.CalmWindow {
				br.State = BreakerClosed
				s.point("supervise.breaker.close", int64(br.Trips))
			}
		}
	}
}

// runCanary runs the end-to-end probe when due. Failures back off
// exponentially (bounded) and strike the most recently disabled
// feature — or escalate the ladder when nothing is disabled, since a
// failing probe with no customization applied means the service
// itself is broken.
func (s *Supervisor) runCanary(now uint64) {
	if s.cfg.Canary == nil || now < s.nextCanaryAt {
		return
	}
	err := s.m.Fault(faultinject.SiteSuperviseCanary, s.canaryFails)
	if err == nil {
		before := s.m.Clock()
		end := s.span("supervise.canary")
		err = s.cfg.Canary()
		if elapsed := s.m.Clock() - before; err == nil && elapsed > canaryDeadline {
			err = fmt.Errorf("supervise: canary exceeded deadline (%d > %d ticks)",
				elapsed, canaryDeadline)
		}
		end(err)
	}
	after := s.m.Clock() // the probe itself consumed virtual time
	if err == nil {
		s.canaryFails = 0
		s.nextCanaryAt = after + s.cfg.CanaryEvery
		s.point("supervise.canary.ok", 0)
		return
	}
	s.canaryFails++
	backoff := shiftClamp(s.cfg.CanaryBackoff, s.canaryFails-1, s.cfg.CanaryBackoffMax)
	s.nextCanaryAt = after + backoff
	s.point("supervise.canary.fail", int64(s.canaryFails))
	if name, ok := s.latestDisabled(); ok {
		s.strike(name, now)
	} else if !s.restored {
		s.escalate(now)
	}
}

// latestDisabled returns the most recently disabled feature that is
// still disabled.
func (s *Supervisor) latestDisabled() (string, bool) {
	disabled := s.cust.Disabled()
	for i := len(s.order) - 1; i >= 0; i-- {
		if _, ok := disabled[s.order[i]]; ok {
			return s.order[i], true
		}
	}
	return "", false
}

// shiftClamp returns base << n clamped to [base, max], overflow-safe.
func shiftClamp(base uint64, n int, max uint64) uint64 {
	v := base
	for i := 0; i < n; i++ {
		v <<= 1
		if v > max || v < base {
			return max
		}
	}
	if v > max {
		return max
	}
	return v
}

// escalate walks the degradation ladder from the current level until
// a rung succeeds. Rung failures (injected or real) fall through to
// the next, harsher rung within the same step — a storm is not left
// unanswered.
func (s *Supervisor) escalate(now uint64) {
	for s.level < 5 {
		s.level++
		s.point("supervise.degrade.level", int64(s.level))
		switch s.level {
		case 1:
			if s.healOnce(now) {
				s.point("supervise.degrade.heal", 0)
				return
			}
		case 2:
			if s.reenableWorst(now) {
				return
			}
		case 3:
			if s.disarmAll(now) {
				return
			}
		case 4:
			if s.scrubText(now) {
				return
			}
		case 5:
			s.restorePristine(now)
			return
		}
	}
}

// scrubText is the ladder rung between "everything disarmed" and the
// last-resort pristine restore: attest the live text against the
// expected-state oracle and repair any diverged page in place. If the
// storm was caused by silent text corruption (a bit flip turning sound
// code into trap-raising garbage), this heals it with zero downtime —
// the restore rung below would pay a full kill/restore for the same
// outcome. A clean attestation means the storm is NOT a text problem,
// so the rung reports failure and the ladder falls through.
func (s *Supervisor) scrubText(now uint64) bool {
	if err := s.m.Fault(faultinject.SiteSuperviseScrub, 0); err != nil {
		s.point("supervise.degrade.scrub.fail", 0)
		return false
	}
	end := s.span("supervise.scrub")
	_, rs, err := s.cust.Scrub()
	if err != nil || rs.Repaired == 0 {
		// Clean text (nothing repaired) means the harsher rung must
		// answer the storm.
		end(err)
		return false
	}
	s.point("supervise.degrade.scrub.repaired", int64(rs.Repaired))
	end(nil)
	return true
}

// reenableWorst force re-enables the most-struck (ties: most recently
// disabled) feature and trips its breaker open.
func (s *Supervisor) reenableWorst(now uint64) bool {
	disabled := s.cust.Disabled()
	blame, best := "", -1
	for _, name := range s.order {
		if _, ok := disabled[name]; !ok {
			continue
		}
		if st := s.breakers[name].Strikes; st >= best {
			best, blame = st, name
		}
	}
	if blame == "" {
		return false
	}
	if err := s.m.Fault(faultinject.SiteSuperviseReenable, 0); err != nil {
		s.point("supervise.degrade.reenable.fail", 0)
		return false
	}
	end := s.span("supervise.reenable")
	_, err := s.cust.EnableBlocks(blame)
	end(err)
	if err != nil {
		s.point("supervise.degrade.reenable.fail", 0)
		return false
	}
	s.open(s.breakers[blame], now)
	s.point("supervise.degrade.reenable", 1)
	return true
}

// disarmAll re-enables every disabled feature in one rewrite and
// switches patching off for good.
func (s *Supervisor) disarmAll(now uint64) bool {
	if err := s.m.Fault(faultinject.SiteSuperviseDisarm, 0); err != nil {
		s.point("supervise.degrade.disarm.fail", 0)
		return false
	}
	end := s.span("supervise.disarm")
	_, err := s.cust.EnableAll()
	end(err)
	if err != nil {
		s.point("supervise.degrade.disarm.fail", 0)
		return false
	}
	s.disarmed = true
	s.point("supervise.degrade.disarm", 1)
	return true
}

// restorePristine is the final rung: kill whatever is left of the
// guest and restore the last-good images. RestoreImages retries within
// this step, since a failed restore leaves no live process, so the
// virtual clock freezes and no later watchdog tick would arrive.
// Running out of tries is the one unrecoverable outcome (ErrGuestLost).
func (s *Supervisor) restorePristine(now uint64) bool {
	end := s.span("supervise.restore")
	failed, err := s.cust.RestoreImages(s.lastGood)
	if err != nil {
		s.fatal = fmt.Errorf("%w: %v", ErrGuestLost, err)
		end(s.fatal)
		s.point("supervise.degrade.lost", int64(len(failed)))
		return false
	}
	s.restored = true
	s.disarmed = true // pristine images predate all edits; stay off
	s.lastHits = 0
	s.samples = nil
	end(nil)
	s.point("supervise.degrade.restore", int64(len(failed)+1))
	return true
}

// DisableFeature applies a feature removal through the supervisor's
// safety gates: refused while patching is disarmed, refused while the
// feature's breaker is open and under probation, and — past probation
// — admitted as a half-open trial whose failure reopens the breaker
// with doubled probation.
func (s *Supervisor) DisableFeature(name string, blocks []coverage.AbsBlock, policy core.Policy) (core.Stats, error) {
	if s.fatal != nil {
		return core.Stats{}, s.fatal
	}
	if !s.attached {
		return core.Stats{}, ErrNotAttached
	}
	if s.disarmed {
		return core.Stats{}, fmt.Errorf("%w (feature %q)", ErrDisarmed, name)
	}
	now := s.m.Clock()
	br := s.breaker(name)
	if br.State == BreakerOpen {
		if now-br.OpenedAt < br.Probation {
			left := br.Probation - (now - br.OpenedAt)
			return core.Stats{}, fmt.Errorf("%w: %q for another %d ticks", ErrQuarantined, name, left)
		}
		br.State = BreakerHalfOpen
		br.trialAt = now
		br.Strikes = 0
		s.point("supervise.breaker.halfopen", int64(br.Trips))
	}
	stats, err := s.cust.DisableBlocks(name, blocks, policy)
	if err != nil {
		s.strike(name, s.m.Clock())
		return stats, err
	}
	s.noteDisabled(name)
	return stats, nil
}

// breaker returns (creating if needed) the feature's breaker and
// registers the feature in blame order.
func (s *Supervisor) breaker(name string) *Breaker {
	br, ok := s.breakers[name]
	if !ok {
		br = &Breaker{}
		s.breakers[name] = br
		s.order = append(s.order, name)
	}
	return br
}

// noteDisabled moves name to the end of the blame order (most recent
// disable is blamed first for canary failures).
func (s *Supervisor) noteDisabled(name string) {
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.order = append(s.order, name)
}

// strike charges one failure against the feature's breaker. A closed
// breaker opens at the configured threshold; a half-open breaker's
// trial fails immediately — straight back open with doubled probation.
func (s *Supervisor) strike(name string, now uint64) {
	br := s.breaker(name)
	br.Strikes++
	s.point("supervise.breaker.strike", int64(br.Strikes))
	switch br.State {
	case BreakerHalfOpen:
		s.open(br, now)
	case BreakerClosed:
		if br.Strikes >= s.cfg.BreakerThreshold {
			s.open(br, now)
		}
	}
}

func (s *Supervisor) open(br *Breaker, now uint64) {
	br.State = BreakerOpen
	br.Trips++
	br.OpenedAt = now
	br.Probation = shiftClamp(s.cfg.Probation, br.Trips-1, s.cfg.ProbationMax)
	br.Strikes = 0
	s.point("supervise.breaker.open", int64(br.Trips))
}

// Status snapshots the supervisor's ledger.
func (s *Supervisor) Status() Status {
	brs := make(map[string]Breaker, len(s.breakers))
	for name, br := range s.breakers {
		brs[name] = *br
	}
	return Status{
		Attached:    s.attached,
		Level:       s.level,
		Disarmed:    s.disarmed,
		Restored:    s.restored,
		CanaryFails: s.canaryFails,
		WindowHits:  s.windowHits(s.m.Clock()),
		Breakers:    brs,
		Err:         s.fatal,
	}
}

// Level returns the degradation rung currently reached (0 = normal).
func (s *Supervisor) Level() int { return s.level }

func (s *Supervisor) span(name string) func(error) {
	o := s.cfg.Observer
	if o == nil {
		return noopSpanEnd
	}
	o.PhaseStart(name, 0)
	return func(err error) { o.PhaseEnd(name, 0, err) }
}

func noopSpanEnd(error) {}

func (s *Supervisor) point(name string, n int64) {
	if o := s.cfg.Observer; o != nil {
		o.Point(name, n)
	}
}
