package fleet

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/dynacut/dynacut/internal/core"
	"github.com/dynacut/dynacut/internal/coverage"
	"github.com/dynacut/dynacut/internal/faultinject"
)

// bootLiveTemplate boots the standard template and pre-installs the
// SIGTRAP handler library via one transaction — the fleet-template
// preparation that lets every CoW clone qualify for the live-patch
// fast path. The returned template's pid is the post-injection root.
func bootLiveTemplate(t *testing.T) *template {
	t.Helper()
	tpl := bootTemplate(t)
	c, err := core.New(tpl.m, tpl.pid, core.Options{RedirectTo: tpl.redirect})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.InstallHandler(); err != nil {
		t.Fatalf("install handler: %v", err)
	}
	tpl.pid = c.PID()
	return tpl
}

// liveConfig is the standard live-patch fleet config.
func liveConfig(tpl *template, replicas, workers, canary, wave int) Config {
	return Config{
		Replicas: replicas, Workers: workers, CanaryShards: canary, WaveSize: wave,
		Core: coreOpts(tpl),
	}
}

// countingApplyLive is countingApply on the fast path.
func countingApplyLive(tpl *template, counts []atomic.Int32) func(r *Replica) (core.Stats, error) {
	return func(r *Replica) (core.Stats, error) {
		counts[r.Index].Add(1)
		return r.Cust.DisableBlocksLive("webdav-write", tpl.blocks, core.PolicyBlockEntry)
	}
}

// TestJournalModeRoundTrip: the record format must carry the step
// mode of an outcome record through encode/decode for every mode.
func TestJournalModeRoundTrip(t *testing.T) {
	for _, mode := range []StepMode{ModeTransaction, ModeLivePatch, ModeFellBack} {
		r := Record{Kind: RecOutcome, Replica: 3, Wave: 1, Attempt: 2,
			Outcome: OutcomeCommitted, Ticks: 77, Ident: 5, VClock: 123, Mode: mode, Note: "x"}
		got, err := decodeRecord(encodeRecord(r))
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if got != r {
			t.Fatalf("round trip lost data:\n got %+v\nwant %+v", got, r)
		}
	}
}

// TestFleetLivePatchRollout: a staged rollout over the fast path
// converges the whole fleet with zero fallbacks, and the journal
// records ModeLivePatch on every outcome and the pristine text root on
// every intent.
func TestFleetLivePatchRollout(t *testing.T) {
	tpl := bootLiveTemplate(t)
	f, err := New(tpl.m, tpl.pid, liveConfig(tpl, 6, 2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	pristine := expectedIdent(f.Replicas()[0])
	c := NewController(f, nil)
	res, err := c.Run(func(r *Replica) (core.Stats, error) {
		return r.Cust.DisableBlocksLive("webdav-write", tpl.blocks, core.PolicyBlockEntry)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed() != 6 {
		t.Fatalf("committed %d/6: %+v", res.Committed(), res.Outcomes)
	}
	for _, o := range res.Outcomes {
		if !o.Stats.LivePatched || o.Stats.FellBack {
			t.Fatalf("replica %d not live-patched: %+v (reason %q)",
				o.Index, o.Stats, o.Stats.FallbackReason)
		}
		if o.Stats.Downtime != 0 {
			t.Errorf("replica %d live patch downtime %v, want 0", o.Index, o.Stats.Downtime)
		}
	}
	recs, err := DecodeJournal(c.Journal().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	intents, outcomes := 0, 0
	for _, r := range recs {
		switch r.Kind {
		case RecIntent:
			intents++
			if r.Ident != pristine {
				t.Fatalf("intent for replica %d journaled root %08x, want the pristine %08x", r.Replica, r.Ident, pristine)
			}
		case RecOutcome:
			outcomes++
			if r.Mode != ModeLivePatch {
				t.Fatalf("outcome for replica %d journaled mode %v, want live-patch", r.Replica, r.Mode)
			}
		}
	}
	if intents != 6 || outcomes != 6 {
		t.Fatalf("journal has %d intents / %d outcomes, want 6/6", intents, outcomes)
	}
	assertConverged(t, f, res, dirDisable)
}

// TestFleetLivePatchFallbackJournalsMode: a replica that cannot take
// the fast path (its apply uses a policy the live path refuses) still
// commits via the transaction, and its outcome record says so:
// ModeFellBack, distinguishable from both clean paths.
func TestFleetLivePatchFallbackJournalsMode(t *testing.T) {
	tpl := bootLiveTemplate(t)
	f, err := New(tpl.m, tpl.pid, liveConfig(tpl, 2, 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(f, nil)
	res, err := c.Run(func(r *Replica) (core.Stats, error) {
		return r.Cust.DisableBlocksLive("webdav-write", tpl.blocks, core.PolicyUnmapPages)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed() != 2 {
		t.Fatalf("committed %d/2: %+v", res.Committed(), res.Outcomes)
	}
	for _, o := range res.Outcomes {
		if o.Stats.LivePatched || !o.Stats.FellBack {
			t.Fatalf("replica %d stats %+v, want a fallback", o.Index, o.Stats)
		}
	}
	recs, err := DecodeJournal(c.Journal().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Kind == RecOutcome && r.Mode != ModeFellBack {
			t.Fatalf("outcome mode %v, want fell-back", r.Mode)
		}
	}
}

// TestFleetLivePatchTornAppendResume is the resume double-apply
// regression test: the controller dies after a live patch committed
// but before its outcome record survived. Resume must classify the
// replica by its text root (the new expected root -> committed), skip
// it, and never run the payload again — a second live patch would
// record INT3 as the "original" bytes and poison every later
// EnableBlocks.
func TestFleetLivePatchTornAppendResume(t *testing.T) {
	tpl := bootLiveTemplate(t)
	inj := faultinject.New(2)
	// The 7th append is a mid-rollout outcome record (start, canary
	// intent+outcome, wave-done, then wave intents/outcomes).
	inj.FailAt(faultinject.SiteFleetJournalAppend, 7)
	cfg := liveConfig(tpl, 8, 2, 1, 4)
	cfg.FaultHook = inj
	f, err := New(tpl.m, tpl.pid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]atomic.Int32, 8)
	apply := countingApplyLive(tpl, counts)

	c := NewController(f, nil)
	if _, err := c.Run(apply); !errors.Is(err, ErrControllerCrashed) {
		t.Fatalf("torn append: err = %v, want ErrControllerCrashed", err)
	}

	res2, err := resume(f, c.Journal().Bytes(), apply)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Committed() != 8 {
		t.Fatalf("resumed rollout committed %d/8", res2.Committed())
	}
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("replica %d live-patched %d times across crash+resume, want exactly 1", i, n)
		}
	}
	assertConverged(t, f, res2, dirDisable)
}

// TestFleetLivePatchTornTextRefusesResume: a journal with an open
// intent over a replica whose text is only partially INT3 is
// unclassifiable — its live root is neither the root the intent
// journaled nor the replica's expected root. Resume must refuse with a
// torn-window error instead of re-patching over half-written text.
func TestFleetLivePatchTornTextRefusesResume(t *testing.T) {
	tpl := bootLiveTemplate(t)
	f, err := New(tpl.m, tpl.pid, liveConfig(tpl, 2, 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	victim := f.Replicas()[0]
	// The blocks a live patch writes: every block but the one holding
	// the redirect target.
	var patched []coverage.AbsBlock
	for _, b := range tpl.blocks {
		if tpl.redirect < b.Addr || tpl.redirect >= b.Addr+b.Size {
			patched = append(patched, b)
		}
	}
	if len(patched) < 2 {
		t.Skipf("need >= 2 blocks to tear, got %d", len(patched))
	}
	root, err := victim.Cust.TextRoot()
	if err != nil {
		t.Fatal(err)
	}

	// The torn window a crash mid-patch leaves behind: one block's
	// entry is INT3, the rest are pristine, and the journal holds an
	// intent with no outcome, stamped with the pre-patch root.
	p, err := victim.Machine.Process(victim.Cust.PID())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Mem().Write(patched[0].Addr, []byte{0xCC}); err != nil {
		t.Fatal(err)
	}
	j := NewJournal()
	for _, r := range []Record{
		{Kind: RecStart, Replica: 2, Wave: 2, Attempt: 1},
		{Kind: RecIntent, Replica: 0, Wave: 0, Attempt: 1, Ident: rootIdent(root)},
	} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}

	counts := make([]atomic.Int32, 2)
	_, err = resume(f, j.Bytes(), countingApplyLive(tpl, counts))
	if err == nil {
		t.Fatal("resume classified a half-patched replica")
	}
	if !strings.Contains(err.Error(), "cannot classify") || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("error %q does not name the torn window", err)
	}
	if n := counts[0].Load(); n != 0 {
		t.Fatalf("resume re-patched the torn replica %d times", n)
	}
}

// TestFleetChaosControllerCrashLivePatch extends the controller-crash
// chaos sweep with live-patch crash points: a fleet on the fast path,
// the controller killed at a seed-varied record boundary (even seeds)
// or by a torn journal append (odd seeds). Every seed must resume to
// a fully converged fleet with exactly one live patch per replica —
// text-root classification, never a blind re-patch.
func TestFleetChaosControllerCrashLivePatch(t *testing.T) {
	tpl := bootLiveTemplate(t)
	const replicas = 64
	for seed := int64(0); seed < chaosSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inj := faultinject.New(seed)
			// A 64-replica rollout consults the crash site ~270 times
			// and the append site ~135 times.
			if seed%2 == 0 {
				inj.FailAt(faultinject.SiteFleetControllerCrash, 1+int(seed*53)%250)
			} else {
				inj.FailAt(faultinject.SiteFleetJournalAppend, 1+int(seed*37)%130)
			}
			cfg := liveConfig(tpl, replicas, 4, 2, 8)
			cfg.FaultHook = inj
			f, err := New(tpl.m, tpl.pid, cfg)
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]atomic.Int32, replicas)
			apply := countingApplyLive(tpl, counts)

			c := NewController(f, nil)
			res1, err := c.Run(apply)
			if !errors.Is(err, ErrControllerCrashed) {
				t.Fatalf("armed kill never landed: err=%v committed=%d", err, res1.Committed())
			}
			if inj.Injected() == 0 {
				t.Fatal("no fault fired")
			}

			res2, err := resume(f, c.Journal().Bytes(), apply)
			if err != nil {
				t.Fatal(err)
			}
			if res2.Committed() != replicas {
				t.Fatalf("resumed rollout committed %d/%d", res2.Committed(), replicas)
			}
			for i := range counts {
				if n := counts[i].Load(); n != 1 {
					t.Fatalf("replica %d live-patched %d times across crash+resume, want exactly 1", i, n)
				}
			}
			// No replica fell back: the template's handler made every
			// clone eligible, and crash recovery must not degrade that.
			for _, o := range res2.Outcomes {
				if o.Stats.Attempts > 0 && !o.Stats.LivePatched {
					t.Fatalf("replica %d degraded to %v (reason %q)",
						o.Index, o.Outcome, o.Stats.FallbackReason)
				}
			}
			assertConverged(t, f, res2, dirDisable)
		})
	}
}
