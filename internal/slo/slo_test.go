package slo

import (
	"errors"
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/apps/webserv"
	"github.com/dynacut/dynacut/internal/core"
	"github.com/dynacut/dynacut/internal/coverage"
	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/fleet"
	"github.com/dynacut/dynacut/internal/kernel"
	"github.com/dynacut/dynacut/internal/loadgen"
	"github.com/dynacut/dynacut/internal/trace"
)

// template is a booted, coverage-profiled web server ready to clone
// into a fleet (same recipe as the fleet suite's).
type template struct {
	m        *kernel.Machine
	pid      int
	port     uint16
	blocks   []coverage.AbsBlock
	redirect uint64
}

func request(m *kernel.Machine, port uint16, req string) string {
	conn, err := m.Dial(port)
	if err != nil {
		return ""
	}
	if _, err := conn.Write([]byte(req)); err != nil {
		return ""
	}
	m.RunUntil(func() bool { return len(conn.ReadAllPeek()) > 0 || conn.Closed() }, 2_000_000)
	m.Run(20000)
	return string(conn.ReadAll())
}

func bootTemplate(t *testing.T) *template {
	t.Helper()
	app, err := webserv.Build(webserv.Config{Name: "lighttpd", Port: 8080})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m := kernel.NewMachine()
	col := trace.NewCollector(app.Config.Name)
	m.SetTracer(col)
	p, err := m.Load(app.Exe, app.Libc)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	booted := false
	m.SetNudgeFunc(func(pid int, arg uint64) { booted = true })
	if !m.RunUntil(func() bool { return booted }, 10_000_000) {
		t.Fatal("boot: nudge never fired")
	}
	m.Run(10000)

	col.Reset()
	for _, r := range []string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /x\n"} {
		request(m, app.Config.Port, r)
	}
	covWanted := coverage.FromLog(col.SnapshotAndReset(p.Modules(), "wanted"))
	for _, r := range []string{"PUT /f data\n", "DELETE /f\n"} {
		request(m, app.Config.Port, r)
	}
	covUndesired := coverage.FromLog(col.SnapshotAndReset(p.Modules(), "undesired"))
	blocks := core.IdentifyFeatureBlocks(covUndesired, covWanted, app.Config.Name)
	if len(blocks) == 0 {
		t.Fatal("no feature blocks identified")
	}
	sym, err := app.Exe.Symbol("resp_403")
	if err != nil {
		t.Fatal(err)
	}
	m.SetTracer(nil) // replicas run untraced
	return &template{m: m, pid: p.PID(), port: app.Config.Port, blocks: blocks, redirect: sym.Value}
}

const (
	bucketTicks = 100_000
	horizon     = 1_200_000
)

func loadCfg(tpl *template) Config {
	return Config{
		Port:        tpl.port,
		Schedule:    loadgen.NewConstant(10_000),
		Mix:         loadgen.NewMix(loadgen.Request{Payload: "GET /\n"}),
		Horizon:     horizon,
		BucketTicks: bucketTicks,
		// Poll finer than the arrival interval so the last pre-hold
		// response is stamped before the hold boundary: the gap's
		// first bucket then stays completion-free and the observed
		// span covers the full charged downtime.
		PollTicks: 5_000,
	}
}

func fleetCfg(tpl *template, replicas int) fleet.Config {
	return fleet.Config{
		Replicas:     replicas,
		Workers:      2,
		CanaryShards: 1,
		WaveSize:     replicas,
		Core: core.Options{
			RedirectTo: tpl.redirect,
			// One lighttpd rewrite models 133 µs of interruption (one
			// process, 10 pages); at this rate that is 305,900 ticks,
			// a three-bucket downtime span on every replica.
			TicksPerSecond: 2_300_000_000,
		},
	}
}

func disableWebdav(tpl *template) func(r *fleet.Replica) (core.Stats, error) {
	return func(r *fleet.Replica) (core.Stats, error) {
		return r.Cust.DisableBlocks("webdav-write", tpl.blocks, core.PolicyBlockEntry)
	}
}

// TestRolloutUnderLoadCrossChecksSpans is the acceptance figure: a
// staged rollout rewrites every replica while open-loop traffic runs,
// and the downtime each replica's journal entry claims (outcome vclock
// minus intent vclock = the rewrite's machine-clock cost) must match
// the service gap the load generator independently observed, within
// one bucket.
func TestRolloutUnderLoadCrossChecksSpans(t *testing.T) {
	tpl := bootTemplate(t)
	const replicas = 4
	rep, f, err := RolloutUnderLoad(tpl.m, tpl.pid, fleetCfg(tpl, replicas), loadCfg(tpl), disableWebdav(tpl))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Rollout.Committed(); got != replicas {
		t.Fatalf("committed = %d, want %d", got, replicas)
	}

	// Conservation across the merged fleet view.
	if got := rep.Served + rep.Errors + rep.Dropped; got != rep.Total {
		t.Fatalf("served %d + errors %d + dropped %d = %d, want Total %d",
			rep.Served, rep.Errors, rep.Dropped, got, rep.Total)
	}
	if rep.Total != replicas*int(horizon/10_000) {
		t.Fatalf("total = %d, want %d scheduled", rep.Total, replicas*horizon/10_000)
	}
	if rep.P50 == 0 || rep.P99 < rep.P50 || rep.P999 < rep.P99 {
		t.Fatalf("percentiles disordered: p50=%d p99=%d p999=%d", rep.P50, rep.P99, rep.P999)
	}
	if rep.ServedPerVtick <= 0 {
		t.Fatal("ServedPerVtick = 0")
	}
	// The backlog requests that fired late after each rewrite carry
	// their full wait as latency: the downtime must be visible in the
	// tail, not absorbed into fire-time accounting.
	if rep.P99 < bucketTicks {
		t.Fatalf("p99 = %d vticks — the rewrite wait is invisible in tail latency", rep.P99)
	}
	// The rewrite made arrivals pile past the in-flight window: the
	// downtime must be visible as dropped requests, not hidden.
	if rep.Dropped == 0 {
		t.Fatal("rollout under load shed no requests — downtime invisible")
	}

	// The cross-check: every replica has both spans and they agree
	// within one bucket.
	if len(rep.JournalSpans) != replicas || len(rep.ObservedSpans) != replicas {
		t.Fatalf("spans: journal %d, observed %d, want %d each",
			len(rep.JournalSpans), len(rep.ObservedSpans), replicas)
	}
	obsByReplica := map[int]Span{}
	for _, s := range rep.ObservedSpans {
		obsByReplica[s.Replica] = s
	}
	// The charge is modelled from work counts, so every replica's
	// rewrite — same template, same edit — spans identical ticks.
	for _, js := range rep.JournalSpans[1:] {
		if js.Ticks() != rep.JournalSpans[0].Ticks() {
			t.Fatalf("journal spans differ across replicas: %+v", rep.JournalSpans)
		}
	}
	for _, js := range rep.JournalSpans {
		os, ok := obsByReplica[js.Replica]
		if !ok {
			t.Fatalf("replica %d: journal span %v but no observed gap", js.Replica, js)
		}
		if !js.Matches(os, bucketTicks) {
			t.Fatalf("replica %d: journal span %d ticks vs observed gap %d ticks — disagree beyond one bucket",
				js.Replica, js.Ticks(), os.Ticks())
		}
		if js.Ticks() < 3*bucketTicks {
			t.Fatalf("replica %d: journal span %d ticks, want the modelled three buckets (>= %d)", js.Replica, js.Ticks(), 3*bucketTicks)
		}
	}

	// The rewrite really landed: every replica now 403s the feature.
	for _, r := range f.Replicas() {
		if got := request(r.Machine, tpl.port, "PUT /f data\n"); !strings.Contains(got, "403") {
			t.Fatalf("replica %d: PUT -> %q, want 403", r.Index, got)
		}
		if got := request(r.Machine, tpl.port, "GET /\n"); !strings.Contains(got, "200") {
			t.Fatalf("replica %d: GET -> %q, want 200", r.Index, got)
		}
	}
}

// TestSteadyStateBaseline: the same load with no rollout has no gap
// buckets, no drops at this rate, and serves the full schedule — the
// baseline row of the experiment table.
func TestSteadyStateBaseline(t *testing.T) {
	tpl := bootTemplate(t)
	f, err := fleet.New(tpl.m, tpl.pid, fleetCfg(tpl, 2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SteadyState(f, loadCfg(tpl))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rollout != nil || len(rep.JournalSpans) != 0 {
		t.Fatal("steady state grew a rollout")
	}
	if rep.Errors != 0 || rep.Dropped != 0 {
		t.Fatalf("steady state errors=%d dropped=%d: %v", rep.Errors, rep.Dropped, rep.Load.Failures)
	}
	if rep.Served != rep.Total {
		t.Fatalf("served %d of %d", rep.Served, rep.Total)
	}
	if len(rep.ObservedSpans) != 0 {
		t.Fatalf("steady state observed gaps: %v", rep.ObservedSpans)
	}
	// The fleet's own machines were untouched (drivers ran on clones).
	for _, r := range f.Replicas() {
		if got := request(r.Machine, tpl.port, "PUT /f data\n"); !strings.Contains(got, "201") {
			t.Fatalf("replica %d no longer pristine: PUT -> %q", r.Index, got)
		}
	}
}

// TestRolloutUnderLoadHaltReleasesDrivers: a rollout whose canary
// fails halts — pending replicas never get an outcome, and the
// harness must release their held drivers when the controller
// returns instead of deadlocking.
func TestRolloutUnderLoadHaltReleasesDrivers(t *testing.T) {
	tpl := bootTemplate(t)
	boom := errors.New("canary sabotage")
	apply := func(r *fleet.Replica) (core.Stats, error) {
		if r.Index == 0 {
			return core.Stats{}, boom
		}
		return disableWebdav(tpl)(r)
	}
	rep, _, err := RolloutUnderLoad(tpl.m, tpl.pid, fleetCfg(tpl, 3), loadCfg(tpl), apply)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Rollout.Halted {
		t.Fatal("sabotaged canary did not halt the rollout")
	}
	// Load still ran to the horizon on every replica.
	if len(rep.PerReplica) != 3 {
		t.Fatalf("results = %d", len(rep.PerReplica))
	}
	for i, r := range rep.PerReplica {
		if r == nil || r.Total != horizon/10_000 {
			t.Fatalf("replica %d load incomplete: %+v", i, r)
		}
	}
	if got := rep.Served + rep.Errors + rep.Dropped; got != rep.Total {
		t.Fatalf("conservation broken: %d != %d", got, rep.Total)
	}
}

func TestConfigValidation(t *testing.T) {
	tpl := bootTemplate(t)
	cfg := loadCfg(tpl)
	cfg.Schedule = nil
	if _, _, err := RolloutUnderLoad(tpl.m, tpl.pid, fleetCfg(tpl, 1), cfg, disableWebdav(tpl)); !errors.Is(err, loadgen.ErrNoSchedule) {
		t.Fatalf("err = %v, want ErrNoSchedule", err)
	}
	cfg = loadCfg(tpl)
	cfg.Horizon = 0
	if _, _, err := RolloutUnderLoad(tpl.m, tpl.pid, fleetCfg(tpl, 1), cfg, disableWebdav(tpl)); !errors.Is(err, ErrNoHorizon) {
		t.Fatalf("err = %v, want ErrNoHorizon", err)
	}
}

// TestLivePatchRolloutUnderLoadNearZeroDowntime is the fast path's SLO
// acceptance figure, the counterpart of the cross-check test above: a
// live-patch rollout under the same open-loop load must be invisible
// to the load generator. No observed service gap, journal spans at the
// one-vtick floor, zero dropped requests, and tail latency flush with
// the steady-state baseline — the three-bucket downtime the
// transaction charges simply never happens.
func TestLivePatchRolloutUnderLoadNearZeroDowntime(t *testing.T) {
	tpl := bootTemplate(t)
	const replicas = 4

	// Fleet-template preparation: inject the SIGTRAP handler once so
	// every clone qualifies for the fast path.
	cust, err := core.New(tpl.m, tpl.pid, core.Options{RedirectTo: tpl.redirect})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cust.InstallHandler(); err != nil {
		t.Fatal(err)
	}
	tpl.pid = cust.PID()

	fcfg := fleetCfg(tpl, replicas)
	apply := func(r *fleet.Replica) (core.Stats, error) {
		return r.Cust.DisableBlocksLive("webdav-write", tpl.blocks, core.PolicyBlockEntry)
	}

	rep, f, err := RolloutUnderLoad(tpl.m, tpl.pid, fcfg, loadCfg(tpl), apply)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Rollout.Committed(); got != replicas {
		t.Fatalf("committed = %d, want %d", got, replicas)
	}
	for _, o := range rep.Rollout.Outcomes {
		if !o.Stats.LivePatched {
			t.Fatalf("replica %d fell off the fast path: %+v (reason %q)",
				o.Index, o.Stats, o.Stats.FallbackReason)
		}
	}

	// The journal's charged span per replica is the one-vtick floor:
	// the patch lands between scheduler rounds, instantaneous on the
	// virtual clock.
	if len(rep.JournalSpans) != replicas {
		t.Fatalf("journal spans = %d, want %d", len(rep.JournalSpans), replicas)
	}
	for _, s := range rep.JournalSpans {
		if s.Ticks() > bucketTicks/10 {
			t.Fatalf("replica %d journal span %d vticks — the live patch charged real downtime", s.Replica, s.Ticks())
		}
	}
	// The load generator saw nothing: no completion-free bucket run
	// with offered traffic, anywhere in the fleet.
	if len(rep.ObservedSpans) != 0 {
		t.Fatalf("observed service gaps on the fast path: %+v", rep.ObservedSpans)
	}
	// An absent observed gap and a floor-level journal span agree
	// within one bucket by the same Matches rule the transaction
	// figure uses.
	for _, js := range rep.JournalSpans {
		if js.Ticks() >= bucketTicks {
			t.Fatalf("replica %d journal span %d does not agree with a zero observed gap within one bucket",
				js.Replica, js.Ticks())
		}
	}
	if rep.Dropped != 0 {
		t.Fatalf("live-patch rollout shed %d requests, want 0", rep.Dropped)
	}
	if rep.P99 >= bucketTicks {
		t.Fatalf("p99 = %d vticks — the fast path leaked rewrite downtime into tail latency", rep.P99)
	}

	// And the customization actually landed fleet-wide.
	for _, r := range f.Replicas() {
		if got := request(r.Machine, tpl.port, "PUT /f data\n"); !strings.Contains(got, "403") {
			t.Fatalf("replica %d PUT -> %q, want 403", r.Index, got)
		}
	}
}

// TestScrubRolloutUnderLoadBitflipStorm is the silent-corruption SLO
// figure: the live-patch rollout runs with attestation sweeps armed
// while a silent bit-flip storm corrupts replica text — and the load
// generator must not be able to tell. Every flip is repaired in place
// at a quiesced round (no restore, no PID moves), so the storm costs
// no observed service gap, no dropped requests, and leaves tail
// latency flush with the steady-state baseline.
func TestScrubRolloutUnderLoadBitflipStorm(t *testing.T) {
	tpl := bootTemplate(t)
	const replicas = 4

	cust, err := core.New(tpl.m, tpl.pid, core.Options{RedirectTo: tpl.redirect})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cust.InstallHandler(); err != nil {
		t.Fatal(err)
	}
	tpl.pid = cust.PID()

	inj := faultinject.New(7)
	inj.FailTransient(faultinject.SiteTextBitflip, 2, 3)
	fcfg := fleetCfg(tpl, replicas)
	fcfg.Scrub = true
	fcfg.FaultHook = inj
	apply := func(r *fleet.Replica) (core.Stats, error) {
		return r.Cust.DisableBlocksLive("webdav-write", tpl.blocks, core.PolicyBlockEntry)
	}

	rep, f, err := RolloutUnderLoad(tpl.m, tpl.pid, fcfg, loadCfg(tpl), apply)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Rollout.Committed(); got != replicas {
		t.Fatalf("committed = %d, want %d", got, replicas)
	}
	if inj.Injected() == 0 {
		t.Fatal("the bit-flip storm never fired")
	}
	repaired, quarantined := 0, 0
	for _, sw := range rep.Rollout.Sweeps {
		repaired += sw.Repaired
		quarantined += sw.Quarantined
	}
	if repaired == 0 {
		t.Fatal("storm fired but no page was repaired")
	}
	if quarantined != 0 {
		t.Fatalf("store-backed repair quarantined %d replicas", quarantined)
	}

	// The storm and its repairs are invisible to the load: no observed
	// service gap, nothing shed, tail latency at the baseline.
	if len(rep.ObservedSpans) != 0 {
		t.Fatalf("observed service gaps under the scrub rollout: %+v", rep.ObservedSpans)
	}
	if rep.Dropped != 0 {
		t.Fatalf("scrub rollout shed %d requests, want 0", rep.Dropped)
	}
	if rep.P99 >= bucketTicks {
		t.Fatalf("p99 = %d vticks — repairs leaked downtime into tail latency", rep.P99)
	}
	t.Logf("storm: %d faults injected, %d pages repaired; p50=%d p99=%d served/vtick=%.5f served=%d/%d dropped=%d",
		inj.Injected(), repaired, rep.P50, rep.P99, rep.ServedPerVtick, rep.Served, rep.Total, rep.Dropped)

	// Disarm and verify: every replica attested clean, still serving,
	// customization intact.
	for _, r := range f.Replicas() {
		r.Machine.SetFaultHook(nil)
	}
	f.Store().SetFaultHook(nil)
	for _, r := range f.Replicas() {
		arep, aerr := r.Cust.Attest()
		if aerr != nil {
			t.Fatalf("replica %d attest: %v", r.Index, aerr)
		}
		if !arep.Clean() {
			t.Fatalf("replica %d silently diverged past the sweeps: %d mismatches", r.Index, len(arep.Mismatches))
		}
		if got := request(r.Machine, tpl.port, "PUT /f data\n"); !strings.Contains(got, "403") {
			t.Fatalf("replica %d PUT -> %q, want 403", r.Index, got)
		}
	}
}
