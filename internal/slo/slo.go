// Package slo measures what customization costs the traffic it
// interrupts. The paper's Figure 8 drives one closed-loop client at
// one guest; a closed-loop client politely absorbs a rewrite's
// downtime as a single slow request, which is precisely the number a
// service-level objective does not care about. This package drives an
// open-loop, schedule-following load generator (internal/loadgen) at
// every replica of a fleet WHILE a real staged rollout — journal,
// canary, waves and all — rewrites them, and reports the figures an
// operator would ask for: p50/p99/p999 latency, requests served per
// vtick, dropped requests, and per-replica downtime spans measured two
// independent ways (the rollout journal's intent/outcome vclock
// stamps vs the service gaps the load generator observed) that must
// agree within one bucket.
//
// # Concurrency model
//
// A kernel.Machine is single-threaded: whoever owns it may step it,
// and nobody else may touch it. During a RolloutUnderLoad each
// replica's machine is owned by its driver goroutine — and the
// controller's workers sample the machine clock around the whole
// apply (journal Ticks = clock delta), so the rollout must not even
// START until every machine's clock is frozen, or driver progress
// between dispatch and rewrite would be billed to the rewrite span.
// The harness therefore sequences ownership in three moves:
//
//  1. Every driver runs its load until the hold arrival boundary
//     (Horizon/3 on the bucket grid) and parks there: the goroutine
//     blocks inside the driver's Hook, the virtual clock frozen at the
//     hold point (wall-clock waiting is invisible on the vtick axis).
//  2. Only when ALL replicas are parked does the controller run. Its
//     workers own the machines exclusively: every rewrite, restore
//     and checkpoint deposit happens while the drivers are provably
//     blocked, and the clock delta it journals is exactly the
//     rewrite's charged cost.
//  3. A replica's driver resumes when the controller's dispatch
//     thread emits that replica's outcome event — after the worker
//     barrier, so the happens-before edge covers the post-commit
//     checkpoint too — or when the rollout returns, whichever is
//     first.
//
// Because every replica parks at the same load-timeline offset and
// resumes exactly its journal span later, the observed service gap
// and the journal span measure the same outage on the same axis.
//
// Known limitation: a halted rollout restores the halted wave's
// committed replicas on the controller thread after their drivers
// were already released; such runs still complete, but those
// replicas' machines should not be inspected concurrently.
package slo

import (
	"errors"
	"fmt"
	"sync"

	"github.com/dynacut/dynacut/internal/core"
	"github.com/dynacut/dynacut/internal/fleet"
	"github.com/dynacut/dynacut/internal/kernel"
	"github.com/dynacut/dynacut/internal/loadgen"
)

// Config shapes the load half of a rollout-under-load run. The fleet
// half arrives as a fleet.Config.
type Config struct {
	// Port is the guest service port on every replica.
	Port uint16
	// Schedule dictates arrivals; every replica gets the same schedule
	// (required).
	Schedule loadgen.Schedule
	// Mix supplies payloads for arrivals without their own.
	Mix *loadgen.Mix
	// Horizon is the load run length in vticks (required).
	Horizon uint64
	// BucketTicks and PollTicks pass through to each replica's
	// loadgen.OpenDriver (zeros = that driver's defaults); its request
	// budget and in-flight window keep their defaults.
	BucketTicks uint64
	PollTicks   uint64
}

// Harness errors.
var (
	ErrNoHorizon = errors.New("slo: config needs a horizon")
)

// Span is one downtime interval attributed to a replica. Journal
// spans live on the controller's worker-lane vclock axis (intent
// stamp to outcome stamp); observed spans live on the replica's load
// timeline (offsets from the run start, bucket-quantized). The axes
// differ but the LENGTHS measure the same outage, which is what
// Matches compares.
type Span struct {
	Replica    int
	Start, End uint64
}

// Ticks returns the span length.
func (s Span) Ticks() uint64 { return s.End - s.Start }

// Matches reports whether two spans agree in length within tol ticks
// (the cross-check tolerance is one bucket: the observed span is
// quantized to the bucket grid).
func (s Span) Matches(o Span, tol uint64) bool {
	a, b := s.Ticks(), o.Ticks()
	if a > b {
		a, b = b, a
	}
	return b-a <= tol
}

// Report is the SLO view of one rollout-under-load run.
type Report struct {
	// PerReplica holds each replica's load result in index order;
	// Load is their Merge — the fleet-level traffic view.
	PerReplica []*loadgen.Result
	Load       *loadgen.Result
	// Rollout is the staged rollout's own result and Journal its
	// decoded journal (nil/empty for SteadyState runs).
	Rollout *fleet.RolloutResult
	Journal []fleet.Record
	// JournalSpans are per-replica rewrite spans derived from the
	// journal's intent/outcome vclock stamps; ObservedSpans are the
	// service gaps the load generator saw (longest run of buckets
	// with offered arrivals and zero completions). Replicas without a
	// gap or journal entry are absent.
	JournalSpans  []Span
	ObservedSpans []Span
	// SLO figures over the merged result.
	P50, P99, P999 uint64
	ServedPerVtick float64
	Served         int
	Dropped        int
	Errors         int
	Total          int
}

// harness wires one rollout-under-load run.
type harness struct {
	cfg         Config
	parked      []chan struct{} // closed when replica i's clock is frozen
	outcome     []chan struct{} // closed when replica i's step resolved
	rolloutDone chan struct{}
	parkOnce    []sync.Once
	outOnce     []sync.Once
}

// RolloutUnderLoad builds a fleet from the template, then runs a
// staged rollout of apply across it while every replica serves the
// configured open-loop load, and reports the SLO figures. The fleet
// is returned for post-run inspection (convergence checks, timeline
// export).
func RolloutUnderLoad(template *kernel.Machine, rootPID int, fcfg fleet.Config, cfg Config, apply func(*fleet.Replica) (core.Stats, error)) (*Report, *fleet.Fleet, error) {
	if cfg.Schedule == nil {
		return nil, nil, loadgen.ErrNoSchedule
	}
	if cfg.Horizon == 0 {
		return nil, nil, ErrNoHorizon
	}
	n := fcfg.Replicas
	h := &harness{
		cfg:         cfg,
		parked:      make([]chan struct{}, n),
		outcome:     make([]chan struct{}, n),
		rolloutDone: make(chan struct{}),
		parkOnce:    make([]sync.Once, n),
		outOnce:     make([]sync.Once, n),
	}
	for i := 0; i < n; i++ {
		h.parked[i] = make(chan struct{})
		h.outcome[i] = make(chan struct{})
	}

	// The controller's dispatch thread announces each step outcome
	// after the worker barrier — the earliest point where the rewrite
	// AND the post-commit checkpoint are done with the machine, so the
	// earliest safe moment to release the parked driver.
	userOnStep := fcfg.OnStep
	fcfg.OnStep = func(ev fleet.StepEvent) {
		switch ev.Kind {
		case "outcome", "budget-exhausted", "skip":
			if ev.Replica >= 0 && ev.Replica < n {
				h.outOnce[ev.Replica].Do(func() { close(h.outcome[ev.Replica]) })
			}
		}
		if userOnStep != nil {
			userOnStep(ev)
		}
	}

	f, err := fleet.New(template, rootPID, fcfg)
	if err != nil {
		return nil, nil, err
	}

	results := make([]*loadgen.Result, n)
	loadErrs := make([]error, n)
	var wg sync.WaitGroup
	for i, r := range f.Replicas() {
		wg.Add(1)
		go func(i int, r *fleet.Replica) {
			defer wg.Done()
			d := h.driver(i, r)
			results[i], loadErrs[i] = d.Run(cfg.Horizon)
			if loadErrs[i] != nil {
				loadErrs[i] = fmt.Errorf("slo: replica %d load: %w", i, loadErrs[i])
			}
			// A driver that finished its run without ever reaching the
			// hold boundary (schedule ended early, hold past horizon,
			// validation error) leaves its machine idle — that counts
			// as parked too, or the rollout below would wait forever.
			h.parkOnce[i].Do(func() { close(h.parked[i]) })
		}(i, r)
	}

	// The rollout starts only once every machine's clock is frozen —
	// either parked at the hold boundary or done with its run — so the
	// clock deltas the controller journals are pure rewrite cost.
	for i := 0; i < n; i++ {
		<-h.parked[i]
	}
	ctl := fleet.NewController(f, nil)
	rollout, rerr := ctl.Run(apply)
	close(h.rolloutDone)
	wg.Wait()
	if rerr != nil {
		return nil, f, fmt.Errorf("slo: rollout: %w", rerr)
	}
	if err := errors.Join(loadErrs...); err != nil {
		return nil, f, err
	}

	rep := summarize(results, cfg.Horizon)
	rep.Rollout = rollout
	rep.Journal = ctl.Journal().Records()
	rep.JournalSpans = journalSpans(rep.Journal)
	rep.ObservedSpans = observedSpans(results, cfg.bucket())
	return rep, f, nil
}

// SteadyState measures the same load shape against clones of the
// fleet's replicas with no rollout running — the baseline the
// rollout-under-load figures are compared against. The fleet's
// machines are not touched: each driver runs on a private clone.
func SteadyState(f *fleet.Fleet, cfg Config) (*Report, error) {
	if cfg.Schedule == nil {
		return nil, loadgen.ErrNoSchedule
	}
	if cfg.Horizon == 0 {
		return nil, ErrNoHorizon
	}
	pool := &loadgen.OpenPool{}
	for _, r := range f.Replicas() {
		pool.Drivers = append(pool.Drivers, &loadgen.OpenDriver{
			Machine:     r.Machine.Clone(),
			Port:        cfg.Port,
			Schedule:    cfg.Schedule,
			Mix:         cloneMix(cfg.Mix),
			BucketTicks: cfg.BucketTicks,
			PollTicks:   cfg.PollTicks,
		})
	}
	results, err := pool.Run(cfg.Horizon)
	if err != nil {
		return nil, err
	}
	return summarize(results, cfg.Horizon), nil
}

// driver builds replica i's open-loop driver. The Hook is the
// harness's ownership seam: at the first arrival boundary at or past
// the hold point, the driver parks — clock frozen, goroutine blocked
// — and hands the machine to the rollout until its own step resolves
// or the rollout returns.
func (h *harness) driver(i int, r *fleet.Replica) *loadgen.OpenDriver {
	held := false
	return &loadgen.OpenDriver{
		Machine:     r.Machine,
		Port:        h.cfg.Port,
		Schedule:    h.cfg.Schedule,
		Mix:         cloneMix(h.cfg.Mix),
		BucketTicks: h.cfg.BucketTicks,
		PollTicks:   h.cfg.PollTicks,
		Observer:    r.Obs,
		Hook: func(offset uint64) error {
			if held || offset < h.holdAt() {
				return nil
			}
			held = true
			h.parkOnce[i].Do(func() { close(h.parked[i]) })
			select {
			case <-h.outcome[i]:
			case <-h.rolloutDone:
			}
			return nil
		},
	}
}

// holdAt is the arrival boundary where each driver pauses to serve its
// replica's rewrite, pinning the downtime gap to a known spot on the
// timeline: Horizon/3 rounded down to the bucket grid.
func (h *harness) holdAt() uint64 {
	bucket := h.cfg.bucket()
	return h.cfg.Horizon / 3 / bucket * bucket
}

// defaultBucketTicks is the bucket width when Config.BucketTicks is
// zero — the same default loadgen.OpenDriver applies.
const defaultBucketTicks = 100_000

// bucket is the configured bucket width or its default.
func (c Config) bucket() uint64 {
	if c.BucketTicks == 0 {
		return defaultBucketTicks
	}
	return c.BucketTicks
}

// cloneMix gives each driver a private mix cursor so concurrent
// drivers do not race on the shared weighted-round-robin position.
func cloneMix(m *loadgen.Mix) *loadgen.Mix {
	if m == nil {
		return nil
	}
	return m.Clone()
}

// summarize folds per-replica results into the Report's SLO figures.
func summarize(results []*loadgen.Result, horizon uint64) *Report {
	merged := loadgen.Merge(results...)
	rep := &Report{
		PerReplica: results,
		Load:       merged,
		P50:        merged.Latency.Percentile(50),
		P99:        merged.Latency.Percentile(99),
		P999:       merged.Latency.Percentile(99.9),
		Served:     merged.Served(),
		Dropped:    merged.Dropped,
		Errors:     merged.Errors,
		Total:      merged.Total,
	}
	if horizon > 0 {
		rep.ServedPerVtick = float64(merged.Served()) / float64(horizon)
	}
	return rep
}

// journalSpans derives each replica's rewrite span from its final
// outcome record: the controller stamps the intent at the lane start
// and the outcome at lane start + Ticks, so the span length is
// exactly the machine-clock cost of the rewrite, checkpoint deposit
// included.
func journalSpans(records []fleet.Record) []Span {
	last := map[int]Span{}
	var order []int
	for _, r := range records {
		if r.Kind != fleet.RecOutcome {
			continue
		}
		ri := int(r.Replica)
		if _, seen := last[ri]; !seen {
			order = append(order, ri)
		}
		last[ri] = Span{Replica: ri, Start: r.VClock - r.Ticks, End: r.VClock}
	}
	spans := make([]Span, 0, len(order))
	for _, ri := range order {
		spans = append(spans, last[ri])
	}
	return spans
}

// observedSpans finds each replica's longest service gap: the longest
// run of buckets that offered traffic yet completed nothing. A
// replica with no such bucket contributes no span.
func observedSpans(results []*loadgen.Result, bucket uint64) []Span {
	var spans []Span
	for i, r := range results {
		if r == nil {
			continue
		}
		bestStart, bestLen := 0, 0
		runStart, runLen := -1, 0
		for bi, b := range r.Buckets {
			if b.Offered > 0 && b.Responses == 0 {
				if runStart < 0 {
					runStart = bi
				}
				runLen++
				if runLen > bestLen {
					bestStart, bestLen = runStart, runLen
				}
			} else {
				runStart, runLen = -1, 0
			}
		}
		if bestLen > 0 {
			spans = append(spans, Span{
				Replica: i,
				Start:   uint64(bestStart) * bucket,
				End:     uint64(bestStart+bestLen) * bucket,
			})
		}
	}
	return spans
}
