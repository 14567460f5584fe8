package supervise

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/dynacut/dynacut/internal/apps/webserv"
	"github.com/dynacut/dynacut/internal/core"
	"github.com/dynacut/dynacut/internal/coverage"
	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/kernel"
	"github.com/dynacut/dynacut/internal/obs"
	"github.com/dynacut/dynacut/internal/trace"
)

// neverPoll parks the tick watchdog far in the future so unit tests
// drive Supervisor.Step by hand, deterministically.
const neverPoll = 1 << 60

// bed is a booted, traced web-server guest (the same harness shape as
// internal/core's testbed, rebuilt here to keep the package test
// surface self-contained).
type bed struct {
	m       *kernel.Machine
	app     *webserv.App
	root    int
	col     *trace.Collector
	initLog *trace.Log
}

func boot(t *testing.T, cfg webserv.Config) *bed {
	t.Helper()
	app, err := webserv.Build(cfg)
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
	b := &bed{m: m, app: app, root: p.PID(), col: col}
	m.SetNudgeFunc(func(pid int, arg uint64) {
		if b.initLog == nil {
			pr, err := m.Process(pid)
			if err != nil {
				return
			}
			b.initLog = col.SnapshotAndReset(pr.Modules(), "init")
		}
	})
	if !m.RunUntil(func() bool { return b.initLog != nil }, 10_000_000) {
		t.Fatalf("boot: nudge never fired; exited=%v killed=%v", p.Exited(), p.KilledBy())
	}
	m.Run(10000)
	return b
}

func (b *bed) request(t *testing.T, req string) string {
	t.Helper()
	conn, err := b.m.Dial(b.app.Config.Port)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	b.m.RunUntil(func() bool { return len(conn.ReadAllPeek()) > 0 || conn.Closed() }, 2_000_000)
	b.m.Run(20000)
	return string(conn.ReadAll())
}

func (b *bed) profile(t *testing.T, wanted, undesired []string) []coverage.AbsBlock {
	t.Helper()
	b.col.Reset()
	for _, r := range wanted {
		b.request(t, r)
	}
	covW := b.snapshot(t, "wanted")
	for _, r := range undesired {
		b.request(t, r)
	}
	covU := b.snapshot(t, "undesired")
	return core.IdentifyFeatureBlocks(covU, covW, b.app.Config.Name)
}

func (b *bed) snapshot(t *testing.T, phase string) *coverage.Graph {
	t.Helper()
	procs := b.m.Processes()
	if len(procs) == 0 {
		t.Fatal("no live processes")
	}
	return coverage.FromLog(b.col.SnapshotAndReset(procs[0].Modules(), phase))
}

func (b *bed) errPath(t *testing.T) uint64 {
	t.Helper()
	sym, err := b.app.Exe.Symbol("resp_403")
	if err != nil {
		t.Fatal(err)
	}
	return sym.Value
}

func (b *bed) assertGET(t *testing.T) {
	t.Helper()
	if got := b.request(t, "GET /\n"); !strings.Contains(got, "200") {
		t.Fatalf("GET -> %q, want 200", got)
	}
}

// canary returns an end-to-end probe against the bed's server.
func (b *bed) canary() func() error {
	return func() error {
		conn, err := b.m.Dial(b.app.Config.Port)
		if err != nil {
			return err
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("GET /\n")); err != nil {
			return err
		}
		if !b.m.RunUntil(func() bool { return len(conn.ReadAllPeek()) > 0 || conn.Closed() }, 2_000_000) {
			return errors.New("canary: no response")
		}
		b.m.Run(20000)
		if got := string(conn.ReadAll()); !strings.Contains(got, "200") {
			return fmt.Errorf("canary: got %q", got)
		}
		return nil
	}
}

// TestSupervisorAdoptsAndStrikes: a falsely-removed feature self-heals
// in-guest (§3.2.3); the supervisor's next step adopts the reverted
// addresses, clears the guest log, and charges the owning feature's
// breaker.
func TestSupervisorAdoptsAndStrikes(t *testing.T) {
	b := boot(t, webserv.Config{Name: "lighttpd", Port: 9200})
	blocks := b.profile(t, []string{"GET /\n", "HEAD /\n"}, []string{"POST /\n"})
	if len(blocks) == 0 {
		t.Fatal("no blocks identified")
	}
	cust, err := core.New(b.m, b.root, core.Options{RedirectTo: b.errPath(t), Verifier: true})
	if err != nil {
		t.Fatal(err)
	}
	sup := New(b.m, cust, Config{PollEvery: neverPoll, StormThreshold: neverPoll})
	if err := sup.Attach(); err != nil {
		t.Fatal(err)
	}
	if _, err := sup.DisableFeature("post", blocks, core.PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	before := cust.DisabledBlockCount()

	// The misclassified POST self-heals under the verifier.
	if got := b.request(t, "POST /\n"); !strings.Contains(got, "200") {
		t.Fatalf("POST under verifier -> %q, want 200", got)
	}
	if fl, err := cust.FalseRemovals(); err != nil || len(fl) == 0 {
		t.Fatalf("no false removals logged (err=%v)", err)
	}

	sup.Step(b.m.Clock())

	if fl, err := cust.FalseRemovals(); err != nil || len(fl) != 0 {
		t.Fatalf("false-removal log not adopted: %d entries (err=%v)", len(fl), err)
	}
	if after := cust.DisabledBlockCount(); after >= before {
		t.Errorf("disabled count %d -> %d, want a drop from adoption", before, after)
	}
	br, ok := sup.Status().Breakers["post"]
	if !ok || br.Strikes == 0 {
		t.Errorf("adoption did not strike the owning feature: %+v (ok=%v)", br, ok)
	}
	b.assertGET(t)
}

// TestBreakerOpensQuarantinesAndRecloses walks the full circuit:
// canary failures strike the most recent feature until its breaker
// opens; DisableFeature is refused during probation, admitted as a
// half-open trial after it, closed after a calm trial — and the next
// trip doubles the probation.
func TestBreakerOpensQuarantinesAndRecloses(t *testing.T) {
	b := boot(t, webserv.Config{Name: "lighttpd", Port: 9201})
	blocks := b.profile(t,
		[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /x\n", "BREW /\n"},
		[]string{"PUT /f data\n", "DELETE /f\n"})
	cust, err := core.New(b.m, b.root, core.Options{RedirectTo: b.errPath(t)})
	if err != nil {
		t.Fatal(err)
	}
	fail := false
	probe := func() error {
		if fail {
			return errors.New("synthetic canary failure")
		}
		return nil
	}
	const probation = 10_000
	sup := New(b.m, cust, Config{
		PollEvery:        neverPoll,
		StormThreshold:   neverPoll,
		Canary:           probe,
		CanaryEvery:      1,
		CanaryBackoff:    1,
		CanaryBackoffMax: 1,
		BreakerThreshold: 2,
		Probation:        probation,
		ProbationMax:     8 * probation,
		CalmWindow:       5_000,
	})
	if err := sup.Attach(); err != nil {
		t.Fatal(err)
	}
	if _, err := sup.DisableFeature("webdav", blocks, core.PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}

	// Two failing canaries: threshold reached, breaker opens.
	fail = true
	for i := 0; i < 2; i++ {
		b.m.AdvanceClock(10)
		sup.Step(b.m.Clock())
	}
	br := sup.Status().Breakers["webdav"]
	if br.State != BreakerOpen || br.Trips != 1 {
		t.Fatalf("breaker after 2 strikes: %+v, want open/1 trip", br)
	}
	if br.Probation != probation {
		t.Fatalf("first-trip probation %d, want %d", br.Probation, probation)
	}

	// Quarantined while probation runs.
	if _, err := sup.DisableFeature("webdav", blocks, core.PolicyBlockEntry); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("DisableFeature under probation: err=%v, want ErrQuarantined", err)
	}

	// Past probation the breaker half-opens; a calm trial closes it.
	fail = false
	b.m.AdvanceClock(probation)
	sup.Step(b.m.Clock())
	if br = sup.Status().Breakers["webdav"]; br.State != BreakerHalfOpen {
		t.Fatalf("breaker after probation: %v, want half-open", br.State)
	}
	b.m.AdvanceClock(5_000)
	sup.Step(b.m.Clock())
	if br = sup.Status().Breakers["webdav"]; br.State != BreakerClosed {
		t.Fatalf("breaker after calm trial: %v, want closed", br.State)
	}

	// The next trip doubles the probation (bounded exponential).
	fail = true
	for i := 0; i < 2; i++ {
		b.m.AdvanceClock(10)
		sup.Step(b.m.Clock())
	}
	br = sup.Status().Breakers["webdav"]
	if br.State != BreakerOpen || br.Trips != 2 {
		t.Fatalf("breaker after retrip: %+v, want open/2 trips", br)
	}
	if br.Probation != 2*probation {
		t.Errorf("second-trip probation %d, want doubled %d", br.Probation, 2*probation)
	}
	b.assertGET(t)
}

// TestTrapStormReenablesOffendingFeature: hammering a blocked feature
// past the storm threshold makes the ladder force re-enable it (rung
// 2) and trip its breaker — the guest converges to full service.
func TestTrapStormReenablesOffendingFeature(t *testing.T) {
	b := boot(t, webserv.Config{Name: "lighttpd", Port: 9202})
	blocks := b.profile(t,
		[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /x\n", "BREW /\n"},
		[]string{"PUT /f data\n", "DELETE /f\n"})
	cust, err := core.New(b.m, b.root, core.Options{RedirectTo: b.errPath(t)})
	if err != nil {
		t.Fatal(err)
	}
	sup := New(b.m, cust, Config{
		PollEvery:      neverPoll,
		StormThreshold: 3,
		StormWindow:    1 << 40,
	})
	if err := sup.Attach(); err != nil {
		t.Fatal(err)
	}
	if _, err := sup.DisableFeature("webdav", blocks, core.PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got := b.request(t, "PUT /f x\n"); !strings.Contains(got, "403") {
			t.Fatalf("blocked PUT -> %q, want 403", got)
		}
	}

	sup.Step(b.m.Clock())

	if lvl := sup.Level(); lvl != 2 {
		t.Fatalf("ladder level %d, want 2 (re-enable)", lvl)
	}
	br := sup.Status().Breakers["webdav"]
	if br.State != BreakerOpen {
		t.Fatalf("offending feature's breaker %v, want open", br.State)
	}
	if n := cust.DisabledBlockCount(); n != 0 {
		t.Fatalf("%d blocks still disabled after forced re-enable", n)
	}
	if got := b.request(t, "PUT /f x\n"); !strings.Contains(got, "201") {
		t.Fatalf("PUT after forced re-enable -> %q, want 201", got)
	}
	if _, err := sup.DisableFeature("webdav", blocks, core.PolicyBlockEntry); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("re-disable of tripped feature: err=%v, want ErrQuarantined", err)
	}
	b.assertGET(t)
}

// TestStormLadderFallsBackToPristine: with re-enable and disarm both
// hard-faulted, a storm walks the ladder to its final rung — the
// last-good pristine images are restored and patching is disarmed.
func TestStormLadderFallsBackToPristine(t *testing.T) {
	b := boot(t, webserv.Config{Name: "lighttpd", Port: 9203})
	blocks := b.profile(t,
		[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /x\n", "BREW /\n"},
		[]string{"PUT /f data\n", "DELETE /f\n"})
	in := faultinject.New(7)
	in.FailTransient(faultinject.SiteSuperviseReenable, 1, -1) // hard faults
	in.FailTransient(faultinject.SiteSuperviseDisarm, 1, -1)
	b.m.SetFaultHook(in)
	cust, err := core.New(b.m, b.root, core.Options{RedirectTo: b.errPath(t)})
	if err != nil {
		t.Fatal(err)
	}
	sup := New(b.m, cust, Config{
		PollEvery:      neverPoll,
		StormThreshold: 3,
		StormWindow:    1 << 40,
	})
	if err := sup.Attach(); err != nil {
		t.Fatal(err)
	}
	if _, err := sup.DisableFeature("webdav", blocks, core.PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		b.request(t, "PUT /f x\n")
	}

	sup.Step(b.m.Clock())

	if !sup.Status().Restored || !sup.Status().Disarmed {
		t.Fatalf("ladder end state restored=%v disarmed=%v, want both", sup.Status().Restored, sup.Status().Disarmed)
	}
	if err := sup.Status().Err; err != nil {
		t.Fatalf("guest lost: %v", err)
	}
	// Pristine fallback: everything re-enabled, full service.
	if got := b.request(t, "PUT /f x\n"); !strings.Contains(got, "201") {
		t.Fatalf("PUT after pristine restore -> %q, want 201", got)
	}
	b.assertGET(t)
	if _, err := sup.DisableFeature("other", blocks, core.PolicyBlockEntry); !errors.Is(err, ErrDisarmed) {
		t.Fatalf("DisableFeature while disarmed: err=%v, want ErrDisarmed", err)
	}
}

// TestStormLadderGuestLost: when every restore fails, the final rung
// runs out of RestoreImages' tries within its step and the supervisor
// reports the guest lost, refusing all further patching.
func TestStormLadderGuestLost(t *testing.T) {
	b := boot(t, webserv.Config{Name: "lighttpd", Port: 9204})
	blocks := b.profile(t,
		[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /x\n", "BREW /\n"},
		[]string{"PUT /f data\n", "DELETE /f\n"})
	in := faultinject.New(8)
	in.FailTransient(faultinject.SiteSuperviseReenable, 1, -1)
	in.FailTransient(faultinject.SiteSuperviseDisarm, 1, -1)
	b.m.SetFaultHook(in)
	cust, err := core.New(b.m, b.root, core.Options{RedirectTo: b.errPath(t)})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(4096)
	sup := New(b.m, cust, Config{
		PollEvery:      neverPoll,
		StormThreshold: 3,
		StormWindow:    1 << 40,
		Observer:       o,
	})
	if err := sup.Attach(); err != nil {
		t.Fatal(err)
	}
	if _, err := sup.DisableFeature("webdav", blocks, core.PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		b.request(t, "PUT /f x\n")
	}
	in.FailTransient(faultinject.PrefixRestore, 1, -1)

	sup.Step(b.m.Clock())

	if err := sup.Status().Err; !errors.Is(err, ErrGuestLost) {
		t.Fatalf("supervisor error = %v, want ErrGuestLost", err)
	}
	if sup.Status().Restored || len(b.m.Processes()) != 0 {
		t.Fatalf("restored=%v with %d live processes, want a lost guest", sup.Status().Restored, len(b.m.Processes()))
	}
	var lost *obs.Event
	evs := o.Events()
	for i := range evs {
		if evs[i].Name == "supervise.degrade.lost" {
			lost = &evs[i]
		}
	}
	if tries := in.Hits(faultinject.SiteRestoreImages); tries != 5 || lost == nil || lost.N != 5 {
		t.Fatalf("degrade.lost point = %+v after %d restore tries, want core's 5 tries counted", lost, tries)
	}
	if _, err := sup.DisableFeature("other", blocks, core.PolicyBlockEntry); !errors.Is(err, ErrGuestLost) {
		t.Fatalf("DisableFeature after loss: err=%v, want ErrGuestLost", err)
	}
}

// TestWatchdogDrivesSupervisor: with a real poll cadence the kernel
// tick watchdog — not a test harness — runs the loop: guest traffic
// alone is enough for the supervisor to adopt a false removal.
func TestWatchdogDrivesSupervisor(t *testing.T) {
	b := boot(t, webserv.Config{Name: "lighttpd", Port: 9204})
	blocks := b.profile(t, []string{"GET /\n", "HEAD /\n"}, []string{"POST /\n"})
	cust, err := core.New(b.m, b.root, core.Options{RedirectTo: b.errPath(t), Verifier: true})
	if err != nil {
		t.Fatal(err)
	}
	sup := New(b.m, cust, Config{PollEvery: 50, StormThreshold: neverPoll})
	if err := sup.Attach(); err != nil {
		t.Fatal(err)
	}
	if _, err := sup.DisableFeature("post", blocks, core.PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	if got := b.request(t, "POST /\n"); !strings.Contains(got, "200") {
		t.Fatalf("POST -> %q", got)
	}
	// More traffic: the watchdog fires during these runs and the
	// supervisor adopts the healed addresses without any manual Step.
	for i := 0; i < 3; i++ {
		b.assertGET(t)
	}
	if fl, err := cust.FalseRemovals(); err != nil || len(fl) != 0 {
		t.Fatalf("watchdog-driven adoption missing: %d entries (err=%v)", len(fl), err)
	}
	if br, ok := sup.Status().Breakers["post"]; !ok || br.Strikes == 0 {
		t.Errorf("no strike recorded by watchdog-driven heal: %+v ok=%v", br, ok)
	}
}

// --- chaos -----------------------------------------------------------

// healChaosScenario: verifier-mode guest with a misclassified POST;
// transient faults at the heal/canary sites must only delay — never
// prevent — convergence to full service with an adopted (empty)
// false-removal log.
func healChaosScenario(t *testing.T, site string, seed int64) {
	b := boot(t, webserv.Config{Name: "lighttpd", Port: 9300})
	in := faultinject.New(seed)
	in.FailTransient(site, 1+int(seed%2), 1)
	b.m.SetFaultHook(in)
	cust, err := core.New(b.m, b.root, core.Options{RedirectTo: b.errPath(t), Verifier: true, MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	blocks := b.profile(t, []string{"GET /\n", "HEAD /\n"}, []string{"POST /\n"})
	sup := New(b.m, cust, Config{
		PollEvery:      neverPoll,
		StormThreshold: neverPoll,
		Canary:         b.canary(),
		CanaryEvery:    10,
		CanaryBackoff:  10,
	})
	if err := sup.Attach(); err != nil {
		t.Fatal(err)
	}
	if _, err := sup.DisableFeature("post", blocks, core.PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	if got := b.request(t, "POST /\n"); !strings.Contains(got, "200") {
		t.Fatalf("POST under verifier -> %q", got)
	}
	// Pump the loop; a transient fault costs one round, no more.
	for i := 0; i < 6; i++ {
		b.m.AdvanceClock(100)
		sup.Step(b.m.Clock())
	}
	assertConverged(t, b, sup, cust)
	if fl, err := cust.FalseRemovals(); err != nil || len(fl) != 0 {
		t.Fatalf("false removals never adopted: %d (err=%v)", len(fl), err)
	}
	if got := b.request(t, "POST /\n"); !strings.Contains(got, "200") {
		t.Fatalf("POST after convergence -> %q", got)
	}
}

// stormChaosScenario: redirect-mode guest under a trap storm; faults
// on the ladder rungs (re-enable / disarm / restore) push it down to
// harsher rungs, but it must always converge to full service or the
// clean pristine fallback — never a wedged guest.
func stormChaosScenario(t *testing.T, site string, seed int64) {
	b := boot(t, webserv.Config{Name: "lighttpd", Port: 9301})
	in := faultinject.New(seed)
	switch site {
	case faultinject.SiteSuperviseDisarm:
		// Rung 3 only runs after rung 2 failed.
		in.FailTransient(faultinject.SiteSuperviseReenable, 1, -1)
	case faultinject.SiteRestoreImages:
		// Rung 4 only runs after rungs 2 and 3 failed.
		in.FailTransient(faultinject.SiteSuperviseReenable, 1, -1)
		in.FailTransient(faultinject.SiteSuperviseDisarm, 1, -1)
	}
	in.FailTransient(site, 1+int(seed%2), 1)
	b.m.SetFaultHook(in)
	cust, err := core.New(b.m, b.root, core.Options{RedirectTo: b.errPath(t), MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	blocks := b.profile(t,
		[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /x\n", "BREW /\n"},
		[]string{"PUT /f data\n", "DELETE /f\n"})
	sup := New(b.m, cust, Config{
		PollEvery:      neverPoll,
		StormThreshold: 3,
		StormWindow:    1 << 40,
	})
	if err := sup.Attach(); err != nil {
		t.Fatal(err)
	}
	if _, err := sup.DisableFeature("webdav", blocks, core.PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		b.request(t, "PUT /f x\n")
	}
	for i := 0; i < 6; i++ {
		sup.Step(b.m.Clock())
		if sup.Status().Err != nil {
			break
		}
		b.m.AdvanceClock(100)
	}
	assertConverged(t, b, sup, cust)
	// The ladder answered the storm: whatever rung it reached, the
	// blocked feature is back in service.
	if got := b.request(t, "PUT /f x\n"); !strings.Contains(got, "201") {
		t.Fatalf("PUT after ladder -> %q, want full service back", got)
	}
}

// assertConverged checks the chaos invariant: the guest is never
// wedged — it serves, the supervisor holds no fatal error, and the
// breaker ledger is internally consistent.
func assertConverged(t *testing.T, b *bed, sup *Supervisor, cust *core.Customizer) {
	t.Helper()
	if err := sup.Status().Err; err != nil {
		t.Fatalf("guest lost under transient faults: %v", err)
	}
	if len(b.m.Processes()) == 0 {
		t.Fatal("no live guest processes")
	}
	b.assertGET(t)
	st := sup.Status()
	if st.Restored && !st.Disarmed {
		t.Errorf("restored guest must be disarmed: %+v", st)
	}
	for name, br := range st.Breakers {
		switch br.State {
		case BreakerClosed, BreakerOpen, BreakerHalfOpen:
		default:
			t.Errorf("breaker %q in impossible state %d", name, br.State)
		}
		if br.State == BreakerOpen && br.Trips == 0 {
			t.Errorf("breaker %q open without a recorded trip", name)
		}
		if br.Probation > 8*defaultProbation && br.Probation > sup.cfg.ProbationMax {
			t.Errorf("breaker %q probation %d exceeds cap", name, br.Probation)
		}
	}
}

// TestChaosSupervisorConverges sweeps every supervise fault site with
// 20 fixed seeds each: a transiently-faulted supervisor action must
// leave the guest either serving at full capacity or restored to the
// clean pristine fallback — never wedged.
func TestChaosSupervisorConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short")
	}
	const seedsPerSite = 20
	healSites := []string{faultinject.SiteSuperviseHeal, faultinject.SiteSuperviseCanary}
	// Storm cases are named after the rung's span: the restore rung
	// fails at core's site, inside Customizer.RestoreImages.
	stormSites := []struct{ rung, site string }{
		{faultinject.SiteSuperviseReenable, faultinject.SiteSuperviseReenable},
		{faultinject.SiteSuperviseDisarm, faultinject.SiteSuperviseDisarm},
		{"supervise.restore", faultinject.SiteRestoreImages},
	}
	for _, site := range healSites {
		for seed := int64(0); seed < seedsPerSite; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", site, seed), func(t *testing.T) {
				healChaosScenario(t, site, seed)
			})
		}
	}
	for _, c := range stormSites {
		for seed := int64(0); seed < seedsPerSite; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", c.rung, seed), func(t *testing.T) {
				stormChaosScenario(t, c.site, seed)
			})
		}
	}
}

// TestSupervisorBreakerDeterministicAcrossSeeds: the breaker ledger
// after a faulted storm scenario is a pure function of (seed, plan) —
// replaying any seed yields the identical ledger, and all seeds that
// share a plan shape agree on the transition outcome.
func TestSupervisorBreakerDeterministicAcrossSeeds(t *testing.T) {
	run := func(seed int64) map[string]Breaker {
		b := boot(t, webserv.Config{Name: "lighttpd", Port: 9302})
		in := faultinject.New(seed)
		in.FailTransient(faultinject.SiteSuperviseReenable, 1, 1)
		b.m.SetFaultHook(in)
		cust, err := core.New(b.m, b.root, core.Options{RedirectTo: b.errPath(t), MaxAttempts: 3})
		if err != nil {
			t.Fatal(err)
		}
		blocks := b.profile(t,
			[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /x\n", "BREW /\n"},
			[]string{"PUT /f data\n", "DELETE /f\n"})
		sup := New(b.m, cust, Config{PollEvery: neverPoll, StormThreshold: 3, StormWindow: 1 << 40})
		if err := sup.Attach(); err != nil {
			t.Fatal(err)
		}
		if _, err := sup.DisableFeature("webdav", blocks, core.PolicyBlockEntry); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			b.request(t, "PUT /f x\n")
		}
		for i := 0; i < 4; i++ {
			sup.Step(b.m.Clock())
			b.m.AdvanceClock(100)
		}
		assertConverged(t, b, sup, cust)
		return sup.Status().Breakers
	}
	want := run(0)
	for seed := int64(1); seed < 20; seed++ {
		got := run(seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d breakers, seed 0 had %d", seed, len(got), len(want))
		}
		for name, w := range want {
			g, ok := got[name]
			if !ok {
				t.Fatalf("seed %d: breaker %q missing", seed, name)
			}
			if g.State != w.State || g.Trips != w.Trips || g.Strikes != w.Strikes {
				t.Errorf("seed %d: breaker %q = %+v, seed 0 = %+v (transitions must be seed-independent)",
					seed, name, g, w)
			}
		}
	}
}

// TestSupervisorTraceReplaysByteIdentical: two identical supervised
// chaos runs (same seed, same plan, virtual clocks, stubbed wall
// clock) must serialize byte-identical observability traces — the
// closed loop adds no hidden nondeterminism.
func TestSupervisorTraceReplaysByteIdentical(t *testing.T) {
	run := func() []byte {
		b := boot(t, webserv.Config{Name: "lighttpd", Port: 9303})
		in := faultinject.New(11)
		in.FailTransient(faultinject.SiteSuperviseReenable, 1, 1)
		b.m.SetFaultHook(in)
		o := obs.New(8192)
		o.SetWallClock(func() time.Time { return time.Unix(0, 0) })
		cust, err := core.New(b.m, b.root, core.Options{
			RedirectTo: b.errPath(t), MaxAttempts: 3, Observer: o,
		})
		if err != nil {
			t.Fatal(err)
		}
		blocks := b.profile(t,
			[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /x\n", "BREW /\n"},
			[]string{"PUT /f data\n", "DELETE /f\n"})
		sup := New(b.m, cust, Config{
			PollEvery: neverPoll, StormThreshold: 3, StormWindow: 1 << 40, Observer: o,
		})
		if err := sup.Attach(); err != nil {
			t.Fatal(err)
		}
		if _, err := sup.DisableFeature("webdav", blocks, core.PolicyBlockEntry); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			b.request(t, "PUT /f x\n")
		}
		for i := 0; i < 4; i++ {
			sup.Step(b.m.Clock())
			b.m.AdvanceClock(100)
		}
		var buf bytes.Buffer
		if err := o.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, c := run(), run()
	if !bytes.Equal(a, c) {
		t.Fatalf("supervised chaos trace not reproducible: %d vs %d bytes", len(a), len(c))
	}
	if !bytes.Contains(a, []byte("supervise.storm")) {
		t.Error("trace missing supervise.storm event")
	}
	// The faulted re-enable rung fell through to the disarm rung; both
	// the injected fault and the rung decision must be in the trace.
	if !bytes.Contains(a, []byte(faultinject.SiteSuperviseReenable)) {
		t.Error("trace missing the injected supervise.reenable fault")
	}
	if !bytes.Contains(a, []byte("supervise.degrade.disarm")) {
		t.Error("trace missing supervise.degrade.disarm event")
	}
}
