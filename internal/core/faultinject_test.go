package core

import (
	"errors"
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/apps/webserv"
	"github.com/dynacut/dynacut/internal/coverage"
	"github.com/dynacut/dynacut/internal/crit"
	"github.com/dynacut/dynacut/internal/criu"
	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/kernel"
)

// currentRoot finds the live root PID (it changes after every restore,
// including rollback restores).
func (tb *testbed) currentRoot(t *testing.T) int {
	t.Helper()
	procs := tb.m.Processes()
	if len(procs) == 0 {
		t.Fatal("guest died")
	}
	return procs[0].PID()
}

// assertServing checks the invariant every chaos case must preserve:
// the guest answers both wanted and (still-enabled) undesired traffic.
func (tb *testbed) assertServing(t *testing.T) {
	t.Helper()
	if got := tb.request(t, "GET /\n"); !strings.Contains(got, "200") {
		t.Fatalf("GET -> %q, want 200", got)
	}
	if got := tb.request(t, "PUT /chaos x\n"); !strings.Contains(got, "201") {
		t.Fatalf("PUT -> %q, want 201 (feature must not be half-disabled)", got)
	}
}

// TestChaosSingleFaultInvariant sweeps every fault-hook site with 20
// fixed seeds each. The invariant: one injected fault anywhere in the
// checkpoint → edit → restore → health-check cycle leaves the guest
// alive and serving, with Stats.RolledBack reporting whether the
// recovery was a rollback (post-commit fault) or a refusal to start
// (pre-commit fault).
func TestChaosSingleFaultInvariant(t *testing.T) {
	const seedsPerSite = 20
	cases := []struct {
		name     string
		arm      func(in *faultinject.Injector)
		rollback bool // fault lands past the commit point
		injected bool // final error chains to faultinject.ErrInjected
	}{
		{"dump-proc", func(in *faultinject.Injector) { in.FailAt(faultinject.SiteDumpProc, 1) }, false, true},
		{"dump-pagemap", func(in *faultinject.Injector) { in.FailAt(faultinject.SiteDumpPageMap, 1) }, false, true},
		{"edit-write", func(in *faultinject.Injector) { in.FailAt(faultinject.SiteEditWrite, 1) }, false, true},
		{"restore-proc", func(in *faultinject.Injector) { in.FailAt(faultinject.SiteRestoreProc, 1) }, true, true},
		{"restore-vma", func(in *faultinject.Injector) { in.FailAt(faultinject.SiteRestoreVMA, 1) }, true, true},
		{"restore-pages", func(in *faultinject.Injector) { in.FailAt(faultinject.SiteRestorePages, 1) }, true, true},
		{"restore-files", func(in *faultinject.Injector) { in.FailAt(faultinject.SiteRestoreFiles, 1) }, true, true},
		{"health", func(in *faultinject.Injector) { in.FailAt(faultinject.SiteHealth, 1) }, true, true},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: uint16(9100 + ci)})
			blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
			if len(blocks) == 0 {
				t.Fatal("no feature blocks identified")
			}
			errPath := tb.errPathAddr(t)

			for seed := int64(1); seed <= seedsPerSite; seed++ {
				in := faultinject.New(seed)
				tc.arm(in)
				tb.m.SetFaultHook(in)
				c, err := New(tb.m, tb.currentRoot(t), Options{RedirectTo: errPath})
				if err != nil {
					t.Fatal(err)
				}
				stats, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry)
				tb.m.SetFaultHook(nil)

				if err == nil {
					t.Fatalf("seed %d: injected fault did not surface", seed)
				}
				if in.Injected() == 0 {
					t.Fatalf("seed %d: no fault actually fired (events: %v)", seed, in.Events())
				}
				if stats.RolledBack != tc.rollback {
					t.Fatalf("seed %d: RolledBack = %v, want %v (err: %v)",
						seed, stats.RolledBack, tc.rollback, err)
				}
				if tc.rollback && !errors.Is(err, ErrRolledBack) {
					t.Fatalf("seed %d: error does not chain ErrRolledBack: %v", seed, err)
				}
				if tc.injected && !errors.Is(err, faultinject.ErrInjected) {
					t.Fatalf("seed %d: error does not chain ErrInjected: %v", seed, err)
				}
				if errors.Is(err, ErrRollbackFailed) {
					t.Fatalf("seed %d: rollback itself failed: %v", seed, err)
				}
				// The guest survived and the feature is fully intact.
				tb.assertServing(t)
			}

			// With the injector gone the same customization commits.
			c, err := New(tb.m, tb.currentRoot(t), Options{RedirectTo: errPath})
			if err != nil {
				t.Fatal(err)
			}
			stats, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry)
			if err != nil {
				t.Fatalf("disable after chaos: %v", err)
			}
			if stats.RolledBack || stats.Attempts != 1 {
				t.Errorf("clean run stats: %+v", stats)
			}
			if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "403") {
				t.Fatalf("PUT after disable -> %q, want 403", got)
			}
			if got := tb.request(t, "GET /\n"); !strings.Contains(got, "200") {
				t.Fatalf("GET after disable -> %q", got)
			}
		})
	}
}

// TestChaosRestoreStepSweep walks a single fault through consecutive
// restore steps (FailAt(PrefixRestore, n)): whichever step dies,
// the rollback restores service.
func TestChaosRestoreStepSweep(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 9130})
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	errPath := tb.errPathAddr(t)
	for step := 1; step <= 4; step++ {
		in := faultinject.New(int64(step))
		in.FailAt(faultinject.PrefixRestore, step)
		tb.m.SetFaultHook(in)
		c, err := New(tb.m, tb.currentRoot(t), Options{RedirectTo: errPath})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry)
		tb.m.SetFaultHook(nil)
		if !errors.Is(err, ErrRolledBack) || !errors.Is(err, ErrRestoreFailed) {
			t.Fatalf("step %d: err = %v, want ErrRolledBack+ErrRestoreFailed", step, err)
		}
		if !stats.RolledBack {
			t.Fatalf("step %d: RolledBack not set", step)
		}
		tb.assertServing(t)
	}
}

// TestRollbackPreservesLiveConnectionPerPolicy: for every removal
// policy, a restore failure mid-rewrite must not cost the established
// client connection, and the customizer must remain fully usable
// (disable, then re-enable) afterwards.
func TestRollbackPreservesLiveConnectionPerPolicy(t *testing.T) {
	policies := []Policy{PolicyBlockEntry, PolicyWipeBlocks, PolicyUnmapPages}
	for i, pol := range policies {
		t.Run(pol.String(), func(t *testing.T) {
			tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: uint16(9140 + i)})
			blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
			errPath := tb.errPathAddr(t)

			// Open a connection before the rewrite; the server accepts
			// and blocks in read.
			conn, err := tb.m.Dial(tb.app.Config.Port)
			if err != nil {
				t.Fatal(err)
			}
			tb.m.Run(50000)

			in := faultinject.New(int64(1000 + i))
			in.FailAt(faultinject.PrefixRestore, 1)
			tb.m.SetFaultHook(in)
			c, err := New(tb.m, tb.proc.PID(), Options{RedirectTo: errPath})
			if err != nil {
				t.Fatal(err)
			}
			stats, err := c.DisableBlocks("webdav-write", blocks, pol)
			tb.m.SetFaultHook(nil)
			if !errors.Is(err, ErrRolledBack) {
				t.Fatalf("err = %v, want ErrRolledBack", err)
			}
			if !stats.RolledBack {
				t.Fatal("RolledBack not set")
			}

			// The pre-rewrite connection survived the failed rewrite.
			if _, err := conn.Write([]byte("GET /\n")); err != nil {
				t.Fatal(err)
			}
			tb.m.RunUntil(func() bool { return len(conn.ReadAllPeek()) > 0 }, 2_000_000)
			if got := string(conn.ReadAll()); !strings.Contains(got, "200") {
				t.Fatalf("rolled-back connection -> %q", got)
			}

			// The same customizer still disables...
			stats2, err := c.DisableBlocks("webdav-write", blocks, pol)
			if err != nil {
				t.Fatalf("disable after rollback: %v", err)
			}
			if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "403") {
				t.Fatalf("PUT after disable -> %q", got)
			}
			if got := tb.request(t, "GET /\n"); !strings.Contains(got, "200") {
				t.Fatalf("GET after disable -> %q", got)
			}
			// ...and re-enables (unmapped pages are one-way, so only
			// check byte-wise policies there).
			if stats2.PagesUnmapped == 0 {
				if _, err := c.EnableBlocks("webdav-write"); err != nil {
					t.Fatalf("enable after rollback: %v", err)
				}
				if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "201") {
					t.Fatalf("PUT after re-enable -> %q", got)
				}
			}
		})
	}
}

// TestRollbackRestoresPristineText: the dumped set is the rollback
// anchor and every attempt edits a clone of it, so no attempt's edits
// may reach the guest through the anchor. A rollback must bring back
// the exact pre-rewrite text, and a retried transaction must save the
// pristine bytes — its re-enable lands on the same text root as a
// fault-free disable → enable cycle.
func TestRollbackRestoresPristineText(t *testing.T) {
	for i, pol := range []Policy{PolicyBlockEntry, PolicyWipeBlocks} {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := webserv.Config{Name: "lighttpd", Port: uint16(9180 + i)}
			cycle := func(tb *testbed, blocks []coverage.AbsBlock, in *faultinject.Injector, attempts int) [32]byte {
				t.Helper()
				if in != nil {
					tb.m.SetFaultHook(in)
				}
				c, err := New(tb.m, tb.currentRoot(t), Options{RedirectTo: tb.errPathAddr(t), MaxAttempts: attempts})
				if err != nil {
					t.Fatal(err)
				}
				stats, err := c.DisableBlocks("webdav-write", blocks, pol)
				tb.m.SetFaultHook(nil)
				if err != nil {
					t.Fatalf("disable: %v", err)
				}
				if in != nil && stats.Attempts != 2 {
					t.Fatalf("Attempts = %d, want 2", stats.Attempts)
				}
				if _, err := c.EnableBlocks("webdav-write"); err != nil {
					t.Fatalf("enable: %v", err)
				}
				root, err := c.TextRoot()
				if err != nil {
					t.Fatal(err)
				}
				return root
			}

			ref := newTestbed(t, cfg)
			want := cycle(ref, ref.profileFeatures(t, wantedReqs, undesiredReqs), nil, 1)

			tb := newTestbed(t, cfg)
			blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
			c, err := New(tb.m, tb.proc.PID(), Options{RedirectTo: tb.errPathAddr(t)})
			if err != nil {
				t.Fatal(err)
			}
			before, err := c.TextRoot()
			if err != nil {
				t.Fatal(err)
			}
			in := faultinject.New(int64(1100 + i))
			in.FailAt(faultinject.PrefixRestore, 1)
			tb.m.SetFaultHook(in)
			_, err = c.DisableBlocks("webdav-write", blocks, pol)
			tb.m.SetFaultHook(nil)
			if !errors.Is(err, ErrRolledBack) {
				t.Fatalf("err = %v, want ErrRolledBack", err)
			}
			if after, err := c.TextRoot(); err != nil || after != before {
				t.Fatalf("text root after rollback = %x (err %v), want pristine %x", after[:8], err, before[:8])
			}

			in = faultinject.New(int64(1110 + i))
			in.FailTransient(faultinject.PrefixRestore, 1, 1)
			if got := cycle(tb, blocks, in, 2); got != want {
				t.Fatalf("text root after retried disable → enable = %x, want %x (fault-free cycle)", got[:8], want[:8])
			}
			tb.assertServing(t)
		})
	}
}

// TestTransientFaultRetriedToCommit: MaxAttempts lets a transient
// restore fault roll back once and then commit on the retry.
func TestTransientFaultRetriedToCommit(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 9150})
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	in := faultinject.New(7)
	in.FailTransient(faultinject.PrefixRestore, 1, 1) // first restore step only
	tb.m.SetFaultHook(in)
	defer tb.m.SetFaultHook(nil)
	c, err := New(tb.m, tb.proc.PID(), Options{
		RedirectTo:  tb.errPathAddr(t),
		MaxAttempts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry)
	if err != nil {
		t.Fatalf("retry did not rescue the transient fault: %v", err)
	}
	if stats.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", stats.Attempts)
	}
	if stats.RolledBack {
		t.Error("RolledBack set on a committed transaction")
	}
	if stats.BlocksPatched != len(blocks) {
		t.Errorf("patched %d, want %d (retry must not double-count)", stats.BlocksPatched, len(blocks))
	}
	if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "403") {
		t.Fatalf("PUT after committed retry -> %q, want 403", got)
	}
	if got := tb.request(t, "GET /\n"); !strings.Contains(got, "200") {
		t.Fatalf("GET after committed retry -> %q", got)
	}
}

// TestTransientHealthFaultRetried: same, with the fault in the
// post-restore health check.
func TestTransientHealthFaultRetried(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 9151})
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	in := faultinject.New(8)
	in.FailTransient(faultinject.SiteHealth, 1, 1)
	tb.m.SetFaultHook(in)
	defer tb.m.SetFaultHook(nil)
	c, err := New(tb.m, tb.proc.PID(), Options{
		RedirectTo:  tb.errPathAddr(t),
		MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry)
	if err != nil {
		t.Fatalf("retry did not rescue the health fault: %v", err)
	}
	if stats.Attempts != 2 || stats.RolledBack {
		t.Errorf("stats = %+v, want Attempts=2 RolledBack=false", stats)
	}
	if stats.HealthCheck <= 0 {
		t.Error("HealthCheck duration not recorded")
	}
}

// TestUserHealthCheckFailureRollsBack: a failing Options.HealthCheck
// (the canary) vetoes the commit and the guest rolls back intact.
func TestUserHealthCheckFailureRollsBack(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 9152})
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	probes := 0
	c, err := New(tb.m, tb.proc.PID(), Options{
		RedirectTo: tb.errPathAddr(t),
		HealthCheck: func(m *kernel.Machine, pid int) error {
			probes++
			if p, err := m.Process(pid); err != nil || p.Exited() {
				t.Errorf("probe saw dead root pid %d", pid)
			}
			return errors.New("canary says no")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry)
	if !errors.Is(err, ErrRolledBack) {
		t.Fatalf("err = %v, want ErrRolledBack", err)
	}
	if !stats.RolledBack || probes != 1 {
		t.Fatalf("stats = %+v, probes = %d", stats, probes)
	}
	tb.assertServing(t)
}

// TestEditedImagesRevalidatedBeforeKill: an edit that leaves the
// images unrestorable is rejected by Validate while the original
// processes are still alive — the guest is never killed.
func TestEditedImagesRevalidatedBeforeKill(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 9153})
	c, err := New(tb.m, tb.proc.PID(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pidBefore := tb.proc.PID()
	stats, err := c.Rewrite(func(ed *crit.Editor, pids []int) error {
		pi, err := ed.Set().Proc(pids[0])
		if err != nil {
			return err
		}
		pi.Core.RIP = 0xdead_beef_f000 // unmapped: restore would SIGSEGV
		return nil
	})
	if !errors.Is(err, criu.ErrInconsistentImage) {
		t.Fatalf("err = %v, want ErrInconsistentImage", err)
	}
	if stats.RolledBack {
		t.Error("RolledBack set for a pre-commit refusal")
	}
	// The original process was never touched: same PID, still serving.
	p, err := tb.m.Process(pidBefore)
	if err != nil || p.Exited() {
		t.Fatal("original process was killed by a rejected edit")
	}
	tb.assertServing(t)
}
