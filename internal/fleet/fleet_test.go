package fleet

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/apps/webserv"
	"github.com/dynacut/dynacut/internal/core"
	"github.com/dynacut/dynacut/internal/coverage"
	"github.com/dynacut/dynacut/internal/kernel"
	"github.com/dynacut/dynacut/internal/trace"
)

// template is a booted, profiled web server ready to be cloned into a
// fleet: the machine, its root PID, the feature blocks to disable and
// the in-guest 403 responder to redirect them to.
type template struct {
	m        *kernel.Machine
	pid      int
	port     uint16
	blocks   []coverage.AbsBlock
	redirect uint64
}

var (
	wantedReqs    = []string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /x\n", "BREW /\n"}
	undesiredReqs = []string{"PUT /f data\n", "DELETE /f\n"}
)

// request sends one request to a machine's guest and returns the
// response (empty on timeout).
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

// healthProbe is the per-replica rewrite health check: the restored
// guest must answer a wanted request end to end.
func healthProbe(m *kernel.Machine, pid int) error {
	if got := request(m, 8080, "GET /\n"); !strings.Contains(got, "200") {
		return fmt.Errorf("health probe got %q", got)
	}
	return nil
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

	// Profile: wanted vs undesired coverage -> feature-unique blocks.
	col.Reset()
	for _, r := range wantedReqs {
		request(m, app.Config.Port, r)
	}
	covWanted := coverage.FromLog(col.SnapshotAndReset(p.Modules(), "wanted"))
	for _, r := range undesiredReqs {
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

// disableWebdav is the rollout payload every test applies.
func disableWebdav(tpl *template) func(r *Replica) (core.Stats, error) {
	return func(r *Replica) (core.Stats, error) {
		return r.Cust.DisableBlocks("webdav-write", tpl.blocks, core.PolicyBlockEntry)
	}
}

func coreOpts(tpl *template) core.Options {
	return core.Options{RedirectTo: tpl.redirect, HealthCheck: healthProbe}
}

// direction is what a test rollout does to the webdav-write feature.
type direction bool

const (
	dirDisable direction = true  // cut: committed replicas answer PUT with 403
	dirEnable  direction = false // re-enable: committed replicas answer 201
)

// assertConverged enforces the fleet invariant: every replica is on the
// rollout's target state, on its pre-rollout state, or on its pristine
// checkpoint (feature working, 201) — and serving wanted requests
// either way. dir names the target state. A dead or torn replica fails.
func assertConverged(t *testing.T, f *Fleet, res *RolloutResult, dir direction) {
	t.Helper()
	newPut, oldPut := "201", "403"
	if dir == dirDisable {
		newPut, oldPut = "403", "201"
	}
	for _, r := range f.Replicas() {
		o := res.Outcomes[r.Index]
		if o.Outcome == OutcomeLost {
			t.Fatalf("replica %d lost: %v", r.Index, o.Err)
		}
		put := request(r.Machine, 8080, "PUT /f data\n")
		get := request(r.Machine, 8080, "GET /\n")
		if !strings.Contains(get, "200") {
			t.Fatalf("replica %d (%v) not serving: GET -> %q", r.Index, o.Outcome, get)
		}
		want := oldPut
		switch {
		case o.Outcome == OutcomeCommitted:
			want = newPut
		case o.Outcome == OutcomeRestored:
			want = "201"
		case o.Outcome != OutcomePending && o.Outcome != OutcomeAborted && o.Outcome != OutcomeFailed && o.Outcome != OutcomeRolledBack:
			t.Fatalf("replica %d unclassified outcome %v", r.Index, o.Outcome)
		}
		if !strings.Contains(put, want) {
			t.Fatalf("replica %d (%v) PUT -> %q, want %s", r.Index, o.Outcome, put, want)
		}
	}
}

func TestFleetRolloutCommitsAllReplicas(t *testing.T) {
	tpl := bootTemplate(t)
	f, err := New(tpl.m, tpl.pid, Config{
		Replicas: 4, Workers: 2, CanaryShards: 1, WaveSize: 2,
		Core: coreOpts(tpl),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Rollout(disableWebdav(tpl))
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted {
		t.Fatalf("rollout halted: %+v", res)
	}
	if res.Committed() != 4 {
		t.Fatalf("committed = %d, want 4 (outcomes %+v)", res.Committed(), res.Outcomes)
	}
	// Wave structure: canary of 1, then 2, then the remaining 1.
	if len(res.Waves) != 3 || !res.Waves[0].Canary || len(res.Waves[0].Replicas) != 1 ||
		len(res.Waves[1].Replicas) != 2 || len(res.Waves[2].Replicas) != 1 {
		t.Fatalf("waves = %+v", res.Waves)
	}
	assertConverged(t, f, res, dirDisable)

	// The template guest was never part of the rollout.
	if got := request(tpl.m, tpl.port, "PUT /f data\n"); !strings.Contains(got, "201") {
		t.Fatalf("template mutated by rollout: PUT -> %q", got)
	}

	// Dedup: 4 pristine checkpoints of identical clones cost ~1 guest.
	st := f.Store().Stats()
	if st.DedupHits == 0 && st.Sets != 1 {
		t.Errorf("no dedup across replica checkpoints: %+v", st)
	}

	// The merged timeline interleaves fleet waves with tagged
	// per-replica rewrite phases.
	tagged, waves := 0, 0
	for _, ev := range f.Timeline() {
		if strings.HasPrefix(ev.Name, "r2/") {
			tagged++
		}
		if ev.Name == "fleet.wave" {
			waves++
		}
	}
	if tagged == 0 || waves != 6 {
		t.Errorf("timeline: %d r2-tagged events, %d wave span events (want >0, 6)", tagged, waves)
	}
}

// TestFleetRolloutDepositsNoCheckpoint: a commit is journaled by its
// text-root fingerprint, not anchored by a post-commit checkpoint, so
// a clean disable+enable cycle over 8 replicas leaves the shared page
// store holding exactly the image sets it held after spawn.
func TestFleetRolloutDepositsNoCheckpoint(t *testing.T) {
	tpl := bootTemplate(t)
	f, err := New(tpl.m, tpl.pid, Config{
		Replicas: 8, Workers: 2, CanaryShards: 1, WaveSize: 4,
		Core: coreOpts(tpl),
	})
	if err != nil {
		t.Fatal(err)
	}
	spawned := f.Store().Stats().Sets
	enable := func(r *Replica) (core.Stats, error) { return r.Cust.EnableBlocks("webdav-write") }
	for _, step := range []struct {
		apply func(r *Replica) (core.Stats, error)
		dir   direction
	}{{disableWebdav(tpl), dirDisable}, {enable, dirEnable}} {
		res, err := f.Rollout(step.apply)
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed() != 8 {
			t.Fatalf("committed = %d/8 (outcomes %+v)", res.Committed(), res.Outcomes)
		}
		assertConverged(t, f, res, step.dir)
		if got := f.Store().Stats().Sets; got != spawned {
			t.Fatalf("store holds %d image sets after the rollout, %d after spawn", got, spawned)
		}
	}
}

func TestFleetCanaryFailureHaltsRollout(t *testing.T) {
	tpl := bootTemplate(t)
	// The canary's health check fails every attempt: core rolls the
	// canary back, the fleet halts, and no later wave ever starts.
	failCanary := true
	opts := coreOpts(tpl)
	opts.HealthCheck = func(m *kernel.Machine, pid int) error {
		if failCanary {
			return errors.New("canary regression")
		}
		return healthProbe(m, pid)
	}
	f, err := New(tpl.m, tpl.pid, Config{
		Replicas: 4, Workers: 2, CanaryShards: 1, WaveSize: 3,
		Core: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Rollout(disableWebdav(tpl))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || res.HaltedWave != 0 {
		t.Fatalf("canary failure did not halt: %+v", res)
	}
	if res.Committed() != 0 {
		t.Fatalf("committed past a failed canary: %+v", res.Outcomes)
	}
	if got := res.Outcomes[0].Outcome; got != OutcomeRolledBack {
		t.Fatalf("canary outcome = %v, want rolled-back", got)
	}
	for i := 1; i < 4; i++ {
		if got := res.Outcomes[i].Outcome; got != OutcomePending {
			t.Fatalf("replica %d outcome = %v, want pending", i, got)
		}
	}
	assertConverged(t, f, res, dirDisable)

	// The halt ended with its rollout; the same fleet then rolls out
	// cleanly.
	failCanary = false
	res2, err := f.Rollout(disableWebdav(tpl))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Halted || res2.Committed() != 4 {
		t.Fatalf("resumed rollout: %+v", res2)
	}
	assertConverged(t, f, res2, dirDisable)
}

func TestFleetWaveFailureRestoresCommitted(t *testing.T) {
	tpl := bootTemplate(t)
	// Canary (replica 0) passes; in the next wave replica 2's rewrite
	// fails pre-commit, so the wave crosses the zero threshold and its
	// committed sibling must be restored to pristine.
	f, err := New(tpl.m, tpl.pid, Config{
		Replicas: 3, Workers: 1, CanaryShards: 1, WaveSize: 2,
		Core: coreOpts(tpl),
	})
	if err != nil {
		t.Fatal(err)
	}
	apply := func(r *Replica) (core.Stats, error) {
		if r.Index == 2 {
			return core.Stats{}, fmt.Errorf("replica %d rewrite failed", r.Index)
		}
		return r.Cust.DisableBlocks("webdav-write", tpl.blocks, core.PolicyBlockEntry)
	}
	res, err := f.Rollout(apply)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || res.HaltedWave != 1 {
		t.Fatalf("wave failure did not halt: %+v", res)
	}
	// The canary committed in an earlier healthy wave: it keeps the
	// new version. The failed wave's committed replica was restored.
	if res.Outcomes[0].Outcome != OutcomeCommitted {
		t.Fatalf("canary = %v, want committed", res.Outcomes[0].Outcome)
	}
	if res.Outcomes[1].Outcome != OutcomeRestored {
		t.Fatalf("wave sibling = %v, want restored", res.Outcomes[1].Outcome)
	}
	if res.Outcomes[2].Outcome != OutcomeFailed {
		t.Fatalf("failing replica = %v, want failed", res.Outcomes[2].Outcome)
	}
	assertConverged(t, f, res, dirDisable)
}

// TestFleetRolloutPooledSpeedup is the BENCH_pr5 acceptance claim in
// unit-test form: on the fleet's virtual-time axis, a 16-replica
// rollout through 8 worker lanes must beat the one-lane serial
// makespan by at least 3x.
func TestFleetRolloutPooledSpeedup(t *testing.T) {
	tpl := bootTemplate(t)
	f, err := New(tpl.m, tpl.pid, Config{
		Replicas: 16, Workers: 8, CanaryShards: 1, WaveSize: 15,
		Core: coreOpts(tpl),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Rollout(disableWebdav(tpl))
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed() != 16 {
		t.Fatalf("committed = %d/16: %+v", res.Committed(), res.Outcomes)
	}
	if res.SerialTicks == 0 || res.FleetTicks == 0 {
		t.Fatalf("degenerate makespan: serial=%d fleet=%d", res.SerialTicks, res.FleetTicks)
	}
	if res.FleetTicks*3 > res.SerialTicks {
		t.Fatalf("pooled makespan %d not 3x better than serial %d", res.FleetTicks, res.SerialTicks)
	}
	t.Logf("16 replicas: serial %d vticks, 8-lane makespan %d vticks (%.1fx)",
		res.SerialTicks, res.FleetTicks, float64(res.SerialTicks)/float64(res.FleetTicks))
}

func TestFleetConfigValidation(t *testing.T) {
	tpl := bootTemplate(t)
	if _, err := New(tpl.m, tpl.pid, Config{}); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("zero replicas -> %v", err)
	}
	// CanaryShards clamps to the fleet size.
	f, err := New(tpl.m, tpl.pid, Config{Replicas: 2, CanaryShards: 5, Core: coreOpts(tpl)})
	if err != nil {
		t.Fatal(err)
	}
	if w := f.waves(); len(w) != 1 || len(w[0]) != 2 {
		t.Fatalf("clamped waves = %v", w)
	}
}
