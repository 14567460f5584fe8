package core

import (
	"errors"
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/apps/webserv"
	"github.com/dynacut/dynacut/internal/coverage"
	"github.com/dynacut/dynacut/internal/kernel"
	"github.com/dynacut/dynacut/internal/trace"
)

// testbed is a booted, traced web server with phase-separated
// coverage: the full §3.1 profiling workflow.
type testbed struct {
	m       *kernel.Machine
	app     *webserv.App
	proc    *kernel.Process
	col     *trace.Collector
	initLog *trace.Log
}

func newTestbed(t *testing.T, cfg webserv.Config) *testbed {
	t.Helper()
	return newTestbedExec(t, cfg, kernel.ModeInterpret)
}

// newTestbedExec boots the testbed under the chosen execution engine;
// the chaos suites run both interpreted and through the block cache.
func newTestbedExec(t *testing.T, cfg webserv.Config, mode kernel.ExecMode) *testbed {
	t.Helper()
	app, err := webserv.Build(cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m := kernel.NewMachine()
	m.SetExecMode(mode)
	col := trace.NewCollector(app.Config.Name)
	m.SetTracer(col)
	p, err := m.Load(app.Exe, app.Libc)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	tb := &testbed{m: m, app: app, proc: p, col: col}
	m.SetNudgeFunc(func(pid int, arg uint64) {
		if tb.initLog == nil {
			pr, err := m.Process(pid)
			if err != nil {
				return
			}
			tb.initLog = col.SnapshotAndReset(pr.Modules(), "init")
		}
	})
	if !m.RunUntil(func() bool { return tb.initLog != nil }, 10_000_000) {
		t.Fatalf("boot: nudge never fired; exited=%v killed=%v", p.Exited(), p.KilledBy())
	}
	m.Run(10000)
	return tb
}

// request sends one request and returns the response.
func (tb *testbed) request(t *testing.T, req string) string {
	t.Helper()
	conn, err := tb.m.Dial(tb.app.Config.Port)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	tb.m.RunUntil(func() bool { return len(conn.ReadAllPeek()) > 0 || conn.Closed() }, 2_000_000)
	tb.m.Run(20000)
	return string(conn.ReadAll())
}

// snapshotPhase captures and clears the coverage of the requests
// driven since the last snapshot.
func (tb *testbed) snapshotPhase(t *testing.T, phase string) *coverage.Graph {
	t.Helper()
	procs := tb.m.Processes()
	if len(procs) == 0 {
		t.Fatal("no live processes")
	}
	return coverage.FromLog(tb.col.SnapshotAndReset(procs[0].Modules(), phase))
}

// profileFeatures drives wanted and undesired request sets and
// returns the identified feature-unique blocks.
func (tb *testbed) profileFeatures(t *testing.T, wanted, undesired []string) []coverage.AbsBlock {
	t.Helper()
	tb.col.Reset()
	for _, r := range wanted {
		tb.request(t, r)
	}
	covWanted := tb.snapshotPhase(t, "wanted")
	for _, r := range undesired {
		tb.request(t, r)
	}
	covUndesired := tb.snapshotPhase(t, "undesired")
	return IdentifyFeatureBlocks(covUndesired, covWanted, tb.app.Config.Name)
}

var (
	wantedReqs    = []string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /x\n", "BREW /\n"}
	undesiredReqs = []string{"PUT /f data\n", "DELETE /f\n"}
)

func (tb *testbed) errPathAddr(t *testing.T) uint64 {
	t.Helper()
	sym, err := tb.app.Exe.Symbol("resp_403")
	if err != nil {
		t.Fatal(err)
	}
	return sym.Value
}

// TestDisableFeatureRedirectsTo403 is the paper's headline flow
// (Figure 5): identify PUT/DELETE blocks by trace diff, block them
// with INT3 via process rewriting, redirect accidental access to the
// 403 responder, and keep serving GETs without restarting.
func TestDisableFeatureRedirectsTo403(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 8080})
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	if len(blocks) == 0 {
		t.Fatal("no feature blocks identified")
	}

	c, err := New(tb.m, tb.proc.PID(), Options{RedirectTo: tb.errPathAddr(t)})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry)
	if err != nil {
		t.Fatalf("disable: %v", err)
	}
	if stats.BlocksPatched != len(blocks) {
		t.Errorf("patched %d, want %d", stats.BlocksPatched, len(blocks))
	}
	if stats.ImageBytes == 0 || stats.Total() <= 0 {
		t.Errorf("stats not populated: %+v", stats)
	}

	// Blocked features now return 403 — and the server stays up.
	if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "403") {
		t.Fatalf("PUT after disable -> %q, want 403", got)
	}
	if got := tb.request(t, "DELETE /f\n"); !strings.Contains(got, "403") {
		t.Fatalf("DELETE after disable -> %q, want 403", got)
	}
	// Wanted features unaffected.
	if got := tb.request(t, "GET /\n"); !strings.Contains(got, "200") {
		t.Fatalf("GET after disable -> %q", got)
	}
	if got := tb.request(t, "POST /\n"); !strings.Contains(got, "200") {
		t.Fatalf("POST after disable -> %q", got)
	}
	hits, err := c.TrapHits()
	if err != nil {
		t.Fatal(err)
	}
	if hits != 2 {
		t.Errorf("trap hits = %d, want 2", hits)
	}

	// Re-enable (the bidirectional transformation) and verify PUT works.
	if _, err := c.EnableBlocks("webdav-write"); err != nil {
		t.Fatalf("enable: %v", err)
	}
	if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "201") {
		t.Fatalf("PUT after re-enable -> %q, want 201", got)
	}
	if got := tb.request(t, "GET /f\n"); !strings.Contains(got, "data") {
		t.Fatalf("GET stored file -> %q", got)
	}
	if c.DisabledBlockCount() != 0 {
		t.Errorf("blocks still recorded as disabled: %v", c.Disabled())
	}
}

// TestInitCodeRemoval removes initialization-only blocks after boot
// and checks the serving path is untouched while re-running init code
// would trap.
func TestInitCodeRemoval(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 8081, InitRoutines: 10})
	// Drive serving traffic to populate the post-init phase.
	for _, r := range wantedReqs {
		tb.request(t, r)
	}
	serving := tb.snapshotPhase(t, "serving")
	initBlocks := IdentifyInitBlocks(coverage.FromLog(tb.initLog), serving, "lighttpd")
	if len(initBlocks) == 0 {
		t.Fatal("no init-only blocks found")
	}

	c, err := New(tb.m, tb.proc.PID(), Options{RedirectTo: tb.errPathAddr(t)})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.DisableBlocks("init", initBlocks, PolicyWipeBlocks)
	if err != nil {
		t.Fatalf("remove init: %v", err)
	}
	if stats.BlocksPatched != len(initBlocks) {
		t.Errorf("wiped %d, want %d", stats.BlocksPatched, len(initBlocks))
	}
	// Serving continues.
	for _, r := range append(wantedReqs, undesiredReqs...) {
		if got := tb.request(t, r); got == "" {
			t.Fatalf("no response to %q after init removal", r)
		}
	}
	// The init chain's blocks really are gone: their bytes are INT3.
	p := tb.m.Processes()[0]
	sym, err := tb.app.Exe.Symbol("init_0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Mem().Read(sym.Value, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 0xCC {
		t.Errorf("init_0 first byte = %#x, want CC", b[0])
	}
	if c.DisabledBytes() == 0 {
		t.Error("DisabledBytes = 0")
	}
}

// TestUnmapPolicy removes init code at page granularity.
func TestUnmapPolicy(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 8082, InitRoutines: 200})
	for _, r := range wantedReqs {
		tb.request(t, r)
	}
	serving := tb.snapshotPhase(t, "serving")
	initBlocks := IdentifyInitBlocks(coverage.FromLog(tb.initLog), serving, "lighttpd")
	c, err := New(tb.m, tb.proc.PID(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.DisableBlocks("init", initBlocks, PolicyUnmapPages)
	if err != nil {
		t.Fatalf("unmap: %v", err)
	}
	if stats.PagesUnmapped == 0 {
		t.Skip("init chain did not fully cover a page; nothing to unmap")
	}
	// Serving still works after whole pages vanished.
	if got := tb.request(t, "GET /\n"); !strings.Contains(got, "200") {
		t.Fatalf("GET after unmap -> %q", got)
	}
}

// TestVerifierModeSelfHeals plants a false positive: a wanted block
// is disabled, verifier mode restores it in place on first access and
// logs the address (§3.2.3).
func TestVerifierModeSelfHeals(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 8083})
	// Deliberately misclassify POST as undesired: profile without
	// POST in the wanted set.
	blocks := tb.profileFeatures(t,
		[]string{"GET /\n", "HEAD /\n"},
		[]string{"PUT /f x\n", "POST /\n"})
	c, err := New(tb.m, tb.proc.PID(), Options{
		RedirectTo: tb.errPathAddr(t),
		Verifier:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DisableBlocks("suspect", blocks, PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	// POST was falsely removed; under the verifier it must still
	// succeed (trap → restore byte → retry).
	if got := tb.request(t, "POST /\n"); !strings.Contains(got, "200") {
		t.Fatalf("POST under verifier -> %q, want 200", got)
	}
	false1, err := c.FalseRemovals()
	if err != nil {
		t.Fatal(err)
	}
	if len(false1) == 0 {
		t.Fatal("no false removals logged")
	}
	// A second POST must not trap again (the byte was restored).
	before, _ := c.TrapHits()
	if got := tb.request(t, "POST /\n"); !strings.Contains(got, "200") {
		t.Fatalf("second POST -> %q", got)
	}
	after, _ := c.TrapHits()
	if beforeHits, afterHits := before, after; afterHits != beforeHits {
		t.Errorf("second POST trapped again: hits %d -> %d", beforeHits, afterHits)
	}
	// The verifier never terminates the program: PUT also self-heals
	// and is logged, so the operator can see which removals were
	// exercised during validation (§3.2.3 restores the original
	// instructions for every trapped address).
	if got := tb.request(t, "PUT /f x\n"); !strings.Contains(got, "201") {
		t.Fatalf("PUT under verifier -> %q, want self-healed 201", got)
	}
	false2, err := c.FalseRemovals()
	if err != nil {
		t.Fatal(err)
	}
	if len(false2) <= len(false1) {
		t.Errorf("PUT access not logged: %d -> %d entries", len(false1), len(false2))
	}

	// Complete the validation loop: healed addresses get adopted into
	// the wanted set, so they no longer count as disabled.
	disabledBefore := c.DisabledBlockCount()
	adopted, err := c.AdoptFalseRemovals()
	if err != nil {
		t.Fatal(err)
	}
	if len(adopted) != len(false2) {
		t.Errorf("adopted %d, logged %d", len(adopted), len(false2))
	}
	if after := c.DisabledBlockCount(); after >= disabledBefore {
		t.Errorf("disabled count %d -> %d after adoption", disabledBefore, after)
	}
}

// TestMultiProcessRewrite customizes an Nginx-style master/worker
// tree: the paper iterates through each process's memory space.
func TestMultiProcessRewrite(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "nginx", Port: 8084, Workers: 2})
	if len(tb.m.Processes()) != 3 {
		t.Fatalf("procs = %d, want master+2 workers", len(tb.m.Processes()))
	}
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	c, err := New(tb.m, tb.proc.PID(), Options{
		Tree:       true,
		RedirectTo: tb.errPathAddr(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry); err != nil {
		t.Fatalf("disable tree: %v", err)
	}
	if n := len(tb.m.Processes()); n != 3 {
		t.Fatalf("procs after rewrite = %d, want 3", n)
	}
	// Whichever worker picks up the request, PUT must be blocked.
	for i := 0; i < 4; i++ {
		if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "403") {
			t.Fatalf("PUT %d -> %q", i, got)
		}
		if got := tb.request(t, "GET /\n"); !strings.Contains(got, "200") {
			t.Fatalf("GET %d -> %q", i, got)
		}
	}
}

// TestRewriteKeepsLiveConnection: a connection opened before the
// rewrite keeps working afterwards (TCP repair through the cycle).
func TestRewriteKeepsLiveConnection(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 8085})
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)

	conn, err := tb.m.Dial(tb.app.Config.Port)
	if err != nil {
		t.Fatal(err)
	}
	tb.m.Run(50000) // server accepts, blocks in read

	c, err := New(tb.m, tb.proc.PID(), Options{RedirectTo: tb.errPathAddr(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	// The pre-rewrite connection answers after the rewrite.
	if _, err := conn.Write([]byte("GET /\n")); err != nil {
		t.Fatal(err)
	}
	tb.m.RunUntil(func() bool { return len(conn.ReadAllPeek()) > 0 }, 2_000_000)
	if got := string(conn.ReadAll()); !strings.Contains(got, "200") {
		t.Fatalf("pre-rewrite connection -> %q", got)
	}
}

func TestCustomizerErrors(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 8086})
	c, err := New(tb.m, tb.proc.PID(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DisableBlocks("empty", nil, PolicyBlockEntry); err == nil {
		t.Error("empty block list accepted")
	}
	if _, err := c.EnableBlocks("never-disabled"); err == nil {
		t.Error("enabling unknown feature succeeded")
	}
	if _, err := c.DisableBlocks("bad", []coverage.AbsBlock{{Addr: 0x400000, Size: 1}}, Policy(99)); err == nil {
		t.Error("unknown policy accepted")
	}
	// Rewriting a dead process fails cleanly.
	if err := tb.m.Kill(c.PID()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DisableBlocks("late", []coverage.AbsBlock{{Addr: 0x400000, Size: 1}}, PolicyBlockEntry); err == nil {
		t.Error("rewrite of dead process succeeded")
	}
}

// TestServiceInterruptionChargesVirtualClock: a rewrite charges the
// virtual clock exactly its modelled interruption — one restore window
// of the dumped tree — and nothing host-dependent, so the same rewrite
// on two clones of one machine charges identical ticks.
func TestServiceInterruptionChargesVirtualClock(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 8087})
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	const tps = 100_000_000
	rewrite := func(ticksPerSecond uint64) (uint64, Stats) {
		m := tb.m.Clone()
		c, err := New(m, tb.proc.PID(), Options{
			RedirectTo:     tb.errPathAddr(t),
			TicksPerSecond: ticksPerSecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		before := m.Clock()
		stats, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry)
		if err != nil {
			t.Fatal(err)
		}
		return m.Clock() - before, stats
	}
	charged, stats := rewrite(tps)
	again, _ := rewrite(tps)
	uncharged, _ := rewrite(0)
	if charged != again {
		t.Fatalf("same rewrite on two clones advanced the clock %d and %d ticks", charged, again)
	}
	// One process restored once: the charge is the model, exactly.
	modelNs := uint64(downtimeNsPerProc + (stats.PagesDumped+stats.PagesSkipped)*downtimeNsPerPage)
	if want := modelNs * tps / 1e9; charged-uncharged != want || want == 0 {
		t.Fatalf("rewrite charged %d ticks, model says %d (%d ns at %d ticks/s)",
			charged-uncharged, want, modelNs, uint64(tps))
	}
}

// TestRewriteReapsReplacedProcesses: every process a rewrite kills is
// removed from the process table once its replacement is restored —
// on commit and after a rollback restore — so repeated disable/enable
// cycles leave no dead entries behind.
func TestRewriteReapsReplacedProcesses(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 8088})
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	failHealth := false
	c, err := New(tb.m, tb.proc.PID(), Options{
		RedirectTo: tb.errPathAddr(t),
		HealthCheck: func(*kernel.Machine, int) error {
			if failHealth {
				return errors.New("injected health failure")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var replaced []int
	step := func(run func() (Stats, error)) {
		t.Helper()
		old := c.PID()
		if _, err := run(); err != nil && !errors.Is(err, ErrRolledBack) {
			t.Fatal(err)
		}
		if c.PID() == old {
			t.Fatalf("rewrite kept root pid %d", old)
		}
		replaced = append(replaced, old)
	}
	const cycles = 5
	for i := 0; i < cycles; i++ {
		step(func() (Stats, error) { return c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry) })
		step(func() (Stats, error) { return c.EnableBlocks("webdav-write") })
	}
	failHealth = true // one rolled-back rewrite: the rollback restore reaps too
	step(func() (Stats, error) { return c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry) })

	for _, pid := range replaced {
		if _, err := tb.m.Process(pid); !errors.Is(err, kernel.ErrNoProcess) {
			t.Errorf("replaced pid %d still in the process table (err %v)", pid, err)
		}
	}
	if n := len(tb.m.Processes()); n != 1 {
		t.Fatalf("%d live processes after %d rewrites, want 1", n, len(replaced))
	}
	if _, err := tb.m.Process(c.PID()); err != nil {
		t.Fatalf("current root %d: %v", c.PID(), err)
	}
}

// TestBeforeCommitAbortsWithGuestUntouched proves the fleet halt
// contract: a BeforeCommit veto stops the rewrite before anything is
// killed, the guest keeps serving its old code, and bookkeeping is
// back to the pre-rewrite snapshot so a later rewrite starts clean.
func TestBeforeCommitAbortsWithGuestUntouched(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 8080})
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)

	halted := true
	c, err := New(tb.m, tb.proc.PID(), Options{
		RedirectTo: tb.errPathAddr(t),
		BeforeCommit: func(attempt int) error {
			if halted {
				return errors.New("rollout halted")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pidBefore := c.PID()

	_, err = c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("halted rewrite error = %v, want ErrAborted", err)
	}
	if c.PID() != pidBefore {
		t.Fatalf("abort changed the root PID: %d -> %d", pidBefore, c.PID())
	}
	// The guest was never touched: the undesired feature still works.
	if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "201") {
		t.Fatalf("PUT after aborted rewrite -> %q, want untouched 201", got)
	}

	// Lift the halt: the same customizer commits cleanly.
	halted = false
	stats, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry)
	if err != nil {
		t.Fatalf("rewrite after abort: %v", err)
	}
	if stats.BlocksPatched != len(blocks) {
		t.Errorf("patched %d blocks, want %d", stats.BlocksPatched, len(blocks))
	}
	if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "403") {
		t.Fatalf("PUT after commit -> %q, want 403", got)
	}
}
