package core

import (
	"errors"
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/apps/webserv"
	"github.com/dynacut/dynacut/internal/coverage"
	"github.com/dynacut/dynacut/internal/criu"
	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/kernel"
)

// liveTestbed boots a guest and pre-installs the SIGTRAP handler
// library (the transaction the live path cannot perform itself), the
// way a fleet template is prepared before cloning. It returns the
// testbed, the profiled feature blocks, and a customizer whose root
// PID is current after the injection rewrite.
func liveTestbed(t *testing.T, cfg webserv.Config, opts Options) (*testbed, []coverage.AbsBlock, *Customizer) {
	t.Helper()
	tb := newTestbed(t, cfg)
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	if len(blocks) == 0 {
		t.Fatal("no feature blocks identified")
	}
	if opts.RedirectTo == 0 {
		opts.RedirectTo = tb.errPathAddr(t)
	}
	c, err := New(tb.m, tb.proc.PID(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.InstallHandler(); err != nil {
		t.Fatalf("install handler: %v", err)
	}
	return tb, blocks, c
}

// countInt3 counts the blocks whose entry byte in pid's live text is
// INT3.
func countInt3(t *testing.T, tb *testbed, pid int, blocks []coverage.AbsBlock) int {
	t.Helper()
	p, err := tb.m.Process(pid)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, b := range blocks {
		entry, err := p.Mem().Read(b.Addr, 1)
		if err != nil {
			t.Fatal(err)
		}
		if entry[0] == 0xCC {
			n++
		}
	}
	return n
}

// TestLivePatchZeroDowntime is the fast path's headline contract: an
// INT3-only policy on a handler-equipped guest commits without a kill,
// without a restore, and with zero measured downtime — and the feature
// is gone exactly as if the transaction had run.
func TestLivePatchZeroDowntime(t *testing.T) {
	tb, blocks, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9300}, Options{})
	pidBefore := c.PID()

	stats, err := c.DisableBlocksLive("webdav-write", blocks, PolicyBlockEntry)
	if err != nil {
		t.Fatalf("live disable: %v", err)
	}
	if !stats.LivePatched || stats.FellBack {
		t.Fatalf("fast path not taken: %+v (reason %q)", stats, stats.FallbackReason)
	}
	if stats.Downtime != 0 {
		t.Errorf("live patch reported downtime %v, want 0", stats.Downtime)
	}
	if stats.BlocksPatched != len(blocks) {
		t.Errorf("patched %d, want %d", stats.BlocksPatched, len(blocks))
	}
	if c.PID() != pidBefore {
		t.Errorf("live patch changed the root PID: %d -> %d (a kill/restore leaked in)", pidBefore, c.PID())
	}

	if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "403") {
		t.Fatalf("PUT after live patch -> %q, want 403", got)
	}
	if got := tb.request(t, "GET /\n"); !strings.Contains(got, "200") {
		t.Fatalf("GET after live patch -> %q", got)
	}

	// The saved originals flow into the same bookkeeping the
	// transaction uses: EnableBlocks reverses a live patch.
	if _, err := c.EnableBlocks("webdav-write"); err != nil {
		t.Fatalf("enable after live patch: %v", err)
	}
	if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "201") {
		t.Fatalf("PUT after re-enable -> %q, want 201", got)
	}
}

// TestLivePatchDirtyPagesSurviveDeltaDump: an in-place text write
// must break the copy-on-write share an earlier checkpoint took, so a
// checkpoint taken after a live patch carries the patched page while
// the earlier one keeps the pristine bytes. A restore of the later set
// into a fresh machine must show INT3 at every patched entry — had the
// write gone into the shared page, or been missed by the dump, the
// restored guest would silently run the unpatched feature.
func TestLivePatchDirtyPagesSurviveDeltaDump(t *testing.T) {
	tb, blocks, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9301}, Options{})

	// A checkpoint first: it shares the text pages the patch writes.
	before, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("baseline checkpoint: %v", err)
	}
	stats, err := c.DisableBlocksLive("webdav-write", blocks, PolicyBlockEntry)
	if err != nil || !stats.LivePatched {
		t.Fatalf("live disable: %v (stats %+v)", err, stats)
	}
	set, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint after the patch: %v", err)
	}

	// Restore into a second machine (cloned for its on-disk binaries,
	// then emptied of processes) — the patched entries must come from
	// the delta dump, not from the source machine's live memory.
	m2 := tb.m.Clone()
	for _, p := range m2.Processes() {
		if err := m2.Kill(p.PID()); err != nil {
			t.Fatal(err)
		}
		m2.Remove(p.PID())
	}
	procs, _, err := criu.Restore(m2, set)
	if err != nil {
		t.Fatalf("restore the checkpoint after the patch: %v", err)
	}
	if len(procs) == 0 {
		t.Fatal("restore produced no processes")
	}
	mem := procs[0].Mem()
	for _, b := range blocks {
		got, err := mem.Read(b.Addr, 1)
		if err != nil {
			t.Fatalf("reading restored entry %#x: %v", b.Addr, err)
		}
		if got[0] != 0xCC {
			t.Fatalf("restored entry %#x = %#x, want INT3: the live patch's page missed the dump", b.Addr, got[0])
		}
		pg, err := before.Procs[before.PIDs[0]].Page(b.Addr / kernel.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if pg[b.Addr%kernel.PageSize] == 0xCC {
			t.Fatalf("entry %#x: the live patch wrote into the earlier checkpoint's page", b.Addr)
		}
	}
}

// TestLivePatchForkedChildForcesFallback is the multi-process
// RIP-safety regression test: with Options.Tree, a forked worker
// parked inside a to-be-wiped block must veto the fast path even when
// the root process is safe. (The single-process scan would have
// patched under the child's feet.)
func TestLivePatchForkedChildForcesFallback(t *testing.T) {
	tb, _, c := liveTestbed(t, webserv.Config{Name: "nginx", Port: 9302, Workers: 2},
		Options{Tree: true, LiveQuiesceRounds: 3})

	procs := tb.m.Processes()
	if len(procs) < 3 {
		t.Fatalf("procs = %d, want master+2 workers", len(procs))
	}
	child := procs[len(procs)-1]
	if child.PID() == c.PID() {
		t.Fatal("no forked child found")
	}
	// Target exactly where the idle worker is parked: its RIP sits
	// inside this synthetic block, and since the whole fleet of
	// processes is blocked waiting for traffic, no number of scheduler
	// rounds can move it out.
	parked := []coverage.AbsBlock{{Addr: child.RIP() &^ 3, Size: 16}}

	stats, err := c.DisableBlocksLive("parked-block", parked, PolicyWipeBlocks)
	if err != nil {
		t.Fatalf("fallback transaction failed: %v", err)
	}
	if stats.LivePatched || !stats.FellBack {
		t.Fatalf("patched under a parked child: %+v", stats)
	}
	if !strings.Contains(stats.FallbackReason, "pid") || !strings.Contains(stats.FallbackReason, "in affected block") {
		t.Errorf("fallback reason %q does not name the parked conflict", stats.FallbackReason)
	}
}

// TestLivePatchStackReturnAddressForcesFallback: the quiesce scan must
// treat every word on the live stack — CALL return addresses and
// signal-frame saved RIPs alike — as a potential resume point. A
// planted address pointing into a feature block has to veto the fast
// path even though no RIP is anywhere near it.
func TestLivePatchStackReturnAddressForcesFallback(t *testing.T) {
	tb, blocks, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9303},
		Options{LiveQuiesceRounds: 2})

	root, err := tb.m.Process(c.PID())
	if err != nil {
		t.Fatal(err)
	}
	mem := root.Mem()
	vma, ok := mem.VMAAt(root.Reg(15 /* isa.SP */))
	if !ok {
		t.Fatal("root has no stack VMA")
	}
	// Plant a saved return address at the very top of the stack — the
	// initial-frame region a parked server never rewrites — pointing
	// into the first feature block.
	slot := vma.End - 8
	orig, err := mem.ReadU64(slot)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.WriteU64(slot, blocks[0].Addr); err != nil {
		t.Fatal(err)
	}

	stats, err := c.DisableBlocksLive("webdav-write", blocks, PolicyBlockEntry)
	if err != nil {
		t.Fatalf("fallback transaction failed: %v", err)
	}
	if stats.LivePatched || !stats.FellBack {
		t.Fatalf("patched with a live return address into the block: %+v", stats)
	}
	if !strings.Contains(stats.FallbackReason, "stack word") {
		t.Errorf("fallback reason %q, want a stack-word conflict", stats.FallbackReason)
	}

	// The fallback transaction still disabled the feature.
	if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "403") {
		t.Fatalf("PUT after fallback -> %q, want 403", got)
	}

	// Clean the planted word off the (restored) guest's stack.
	procs := tb.m.Processes()
	if len(procs) > 0 {
		_ = procs[0].Mem().WriteU64(slot, orig)
	}
}

// TestLivePatchFallbackLadder sweeps every "cannot take the fast path"
// rung: ineligible policy, verifier mode, missing handler library, and
// injected faults at each core.livepatch.* site. Each rung must fall
// back to the transaction, succeed, and record why in Stats.
func TestLivePatchFallbackLadder(t *testing.T) {
	cases := []struct {
		name    string
		policy  Policy
		opts    Options // Tree/Verifier/LiveQuiesceRounds extras
		handler bool    // pre-install the handler library
		arm     func(in *faultinject.Injector)
		reason  string
	}{
		{"unmap-policy", PolicyUnmapPages, Options{}, true, nil, "requires the checkpoint transaction"},
		{"verifier-mode", PolicyBlockEntry, Options{Verifier: true}, true, nil, "verifier mode"},
		{"no-handler", PolicyBlockEntry, Options{}, false, nil, "handler library not mapped"},
		{"quiesce-fault", PolicyBlockEntry, Options{}, true,
			func(in *faultinject.Injector) { in.FailAt(faultinject.SiteLivePatchQuiesce, 1) }, "quiesce fault"},
		{"patch-fault", PolicyBlockEntry, Options{}, true,
			func(in *faultinject.Injector) { in.FailAt(faultinject.SiteLivePatchPatch, 1) }, "patch fault"},
		{"commit-fault", PolicyBlockEntry, Options{}, true,
			func(in *faultinject.Injector) { in.FailAt(faultinject.SiteLivePatchCommit, 1) }, "commit fault"},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: uint16(9310 + ci)})
			blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
			if len(blocks) == 0 {
				t.Fatal("no feature blocks identified")
			}
			opts := tc.opts
			opts.RedirectTo = tb.errPathAddr(t)
			c, err := New(tb.m, tb.proc.PID(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.handler {
				if _, err := c.InstallHandler(); err != nil {
					t.Fatal(err)
				}
			}
			if tc.arm != nil {
				in := faultinject.New(1)
				tc.arm(in)
				tb.m.SetFaultHook(in)
				defer tb.m.SetFaultHook(nil)
			}

			stats, err := c.DisableBlocksLive("webdav-write", blocks, tc.policy)
			if err != nil {
				t.Fatalf("fallback transaction failed: %v", err)
			}
			if stats.LivePatched {
				t.Fatalf("fast path taken on the %s rung: %+v", tc.name, stats)
			}
			if !stats.FellBack || !strings.Contains(stats.FallbackReason, tc.reason) {
				t.Fatalf("FellBack=%v reason=%q, want reason containing %q",
					stats.FellBack, stats.FallbackReason, tc.reason)
			}
			if c.DisabledBlockCount() == 0 {
				t.Fatal("fallback did not disable the blocks")
			}
			// Verifier mode self-heals trapped blocks by design, so the
			// 403 probe only applies to the plain block-entry rungs.
			if tc.policy == PolicyBlockEntry && !tc.opts.Verifier {
				if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "403") {
					t.Fatalf("PUT after fallback -> %q, want 403", got)
				}
			}
		})
	}
}

// TestLivePatchAbortUnwindsText: a BeforeCommit veto on the fast path
// is a hard ErrAborted, not a fallback — the fleet halt gate must stop
// both paths identically — and every INT3 byte already written must be
// unwound so the guest keeps its pristine text.
func TestLivePatchAbortUnwindsText(t *testing.T) {
	halted := true
	tb, blocks, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9320}, Options{})
	c.opts.BeforeCommit = func(attempt int) error {
		if halted {
			return errors.New("rollout halted")
		}
		return nil
	}

	_, err := c.DisableBlocksLive("webdav-write", blocks, PolicyBlockEntry)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("halted live patch error = %v, want ErrAborted", err)
	}
	if n := countInt3(t, tb, c.PID(), c.filterProtected(blocks)); n != 0 {
		t.Fatalf("aborted live patch left %d INT3 block entries behind", n)
	}
	if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "201") {
		t.Fatalf("PUT after aborted live patch -> %q, want untouched 201", got)
	}

	// Lift the halt: the same customizer live-patches cleanly.
	halted = false
	stats, err := c.DisableBlocksLive("webdav-write", blocks, PolicyBlockEntry)
	if err != nil || !stats.LivePatched {
		t.Fatalf("live patch after abort: %v (stats %+v)", err, stats)
	}
	if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "403") {
		t.Fatalf("PUT after commit -> %q, want 403", got)
	}
}

// TestLivePatchChaosSeeds sweeps seeded single faults across the
// core.livepatch.* sites (quiesce, one per patch write, commit). The
// invariant: any injected fault unwinds the partial patch, falls back
// to the transaction, and ends with the feature disabled and the guest
// serving — never a half-patched text or a dead guest.
func TestLivePatchChaosSeeds(t *testing.T) {
	runLivePatchChaosSeeds(t, kernel.ModeInterpret, 9321)
}

// TestLivePatchChaosSeedsTranslate is the same sweep with the guest
// executing through the basic-block translation cache. Every INT3
// store, unwind write and fallback-transaction restore now races a
// cache full of pre-decoded blocks; the 403/200/201 probes prove a
// patched (or unwound) page never executes stale cached code.
func TestLivePatchChaosSeedsTranslate(t *testing.T) {
	runLivePatchChaosSeeds(t, kernel.ModeTranslate, 9324)
}

func runLivePatchChaosSeeds(t *testing.T, mode kernel.ExecMode, port uint16) {
	tb := newTestbedExec(t, webserv.Config{Name: "lighttpd", Port: port}, mode)
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	if len(blocks) == 0 {
		t.Fatal("no feature blocks identified")
	}
	errPath := tb.errPathAddr(t)
	// One quiesce consult + one per patched block + one commit consult.
	hitsPerRun := 1 + len(blocks) + 1

	for seed := int64(1); seed <= 20; seed++ {
		in := faultinject.New(seed)
		in.FailAt(faultinject.PrefixLivePatch, 1+int(seed-1)%hitsPerRun)
		tb.m.SetFaultHook(in)
		c, err := New(tb.m, tb.currentRoot(t), Options{RedirectTo: errPath})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.InstallHandler(); err != nil {
			t.Fatalf("seed %d: install handler: %v", seed, err)
		}
		stats, err := c.DisableBlocksLive("webdav-write", blocks, PolicyBlockEntry)
		tb.m.SetFaultHook(nil)
		if err != nil {
			t.Fatalf("seed %d: fallback transaction failed: %v", seed, err)
		}
		if in.Injected() == 0 {
			t.Fatalf("seed %d: no fault fired (events %v)", seed, in.Events())
		}
		if stats.LivePatched || !stats.FellBack {
			t.Fatalf("seed %d: fault did not force a fallback: %+v", seed, stats)
		}
		if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "403") {
			t.Fatalf("seed %d: PUT after fallback -> %q, want 403", seed, got)
		}
		if got := tb.request(t, "GET /\n"); !strings.Contains(got, "200") {
			t.Fatalf("seed %d: GET after fallback -> %q", seed, got)
		}
		// Reset for the next seed.
		if _, err := c.EnableBlocks("webdav-write"); err != nil {
			t.Fatalf("seed %d: enable: %v", seed, err)
		}
		if got := tb.request(t, "PUT /f x\n"); !strings.Contains(got, "201") {
			t.Fatalf("seed %d: PUT after re-enable -> %q, want 201", seed, got)
		}
	}
	if mode == kernel.ModeTranslate {
		// The sweep must actually have exercised the cache AND its
		// invalidation protocol: the guest served from cached blocks,
		// and the INT3 stores / unwinds flushed blocks on the patched
		// pages (had they not, the 403 probes above would have seen
		// stale code).
		st := tb.m.BlockCacheStats()
		if st.Hits == 0 {
			t.Fatalf("translate-mode chaos never hit the block cache: %+v", st)
		}
		if st.PageFlushes == 0 {
			t.Fatalf("no cached block was flushed by the patch writes: %+v", st)
		}
	}
}

// TestInstallHandlerIdempotent: a second InstallHandler on an already
// equipped guest is a no-op — no rewrite, no PID change, zero Stats.
func TestInstallHandlerIdempotent(t *testing.T) {
	_, _, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9322}, Options{})
	pid := c.PID()
	stats, err := c.InstallHandler()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Attempts != 0 || c.PID() != pid {
		t.Fatalf("second InstallHandler was not a no-op: %+v (pid %d -> %d)", stats, pid, c.PID())
	}
}
