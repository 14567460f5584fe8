package fleet

import (
	"fmt"
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/kernel"
)

// The silent-corruption chaos suite. Unlike every other chaos site,
// these faults return no error anywhere: text bits flip, store blobs
// rot, collected roots skew — and the run continues as if nothing
// happened. The invariant under test is therefore not "the error is
// handled" but "the corruption cannot stay silent": after a Scrub
// rollout, every replica is either attested-correct (live text proven
// equal to its oracle) or journaled-quarantined. Never silently wrong.
//
// Dual zero-downtime accounting rides along: in-place repairs must
// never show up as restores in the journal, never move a root PID, and
// never emit a fleet.rollback observation.

// attestChaosFleet builds the standard 64-replica Scrub fleet.
func attestChaosFleet(t *testing.T, tpl *template, inj *faultinject.Injector) *Fleet {
	t.Helper()
	cfg := liveConfig(tpl, 64, 8, 8, 56)
	cfg.Scrub = true
	cfg.FaultHook = inj
	f, err := New(tpl.m, tpl.pid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// assertAttestedOrQuarantined enforces the silent-corruption invariant
// and the dual zero-downtime ledger after a Scrub rollout.
func assertAttestedOrQuarantined(t *testing.T, f *Fleet, ctl *Controller, res *RolloutResult, pids []int) {
	t.Helper()
	// Fold the journal into the quarantine set it proves.
	journaled := map[int]bool{}
	for _, rec := range ctl.Journal().Records() {
		switch rec.Kind {
		case RecQuarantine:
			journaled[int(rec.Replica)] = true
		case RecAttest:
			if AttestVerdict(rec.Attempt) == VerdictReadmit {
				delete(journaled, int(rec.Replica))
			}
		case RecOutcome:
			if rec.Outcome == OutcomeRestored {
				t.Errorf("journal shows a restore during a repair-only run: %+v", rec)
			}
		}
	}
	// Disarm every silent fault before verifying: the verification
	// attest must observe, not inject.
	for _, r := range f.Replicas() {
		r.Machine.SetFaultHook(nil)
	}
	f.Store().SetFaultHook(nil)

	if res.Halted {
		t.Errorf("silent corruption halted the rollout: %+v", res.Waves)
	}
	for _, r := range f.Replicas() {
		if r.Quarantined() {
			if !journaled[r.Index] {
				t.Errorf("replica %d quarantined in memory but not in the journal", r.Index)
			}
			continue
		}
		if journaled[r.Index] {
			t.Errorf("replica %d journaled quarantined but serving", r.Index)
		}
		if o := res.Outcomes[r.Index].Outcome; o == OutcomeRestored || o == OutcomeLost {
			t.Errorf("replica %d outcome %v: repair must not restore", r.Index, o)
		}
		if r.Cust.PID() != pids[r.Index] {
			t.Errorf("replica %d PID %d -> %d: zero-downtime repair moved the root",
				r.Index, pids[r.Index], r.Cust.PID())
		}
		rep, err := r.Cust.Attest()
		if err != nil {
			t.Errorf("replica %d verification attest: %v", r.Index, err)
			continue
		}
		if !rep.Clean() {
			t.Errorf("replica %d SILENTLY DIVERGED past the sweep: %d mismatches",
				r.Index, len(rep.Mismatches))
		}
		if got := request(r.Machine, 8080, "GET /\n"); !strings.Contains(got, "200") {
			t.Errorf("replica %d attested clean but not serving: %q", r.Index, got)
		}
	}
	for _, ev := range f.obs.Events() {
		if ev.Name == "fleet.rollback" {
			t.Errorf("fleet.rollback observed during a repair-only run")
		}
	}
}

// runAttestChaos drives the seed sweep for one silent fault site.
func runAttestChaos(t *testing.T, arm func(inj *faultinject.Injector, seed int64)) {
	runAttestChaosMode(t, kernel.ModeInterpret, arm)
}

// runAttestChaosMode is runAttestChaos under a chosen execution
// engine: the mode is set on the template machine, and every CoW
// replica inherits it through Machine.Clone.
func runAttestChaosMode(t *testing.T, mode kernel.ExecMode, arm func(inj *faultinject.Injector, seed int64)) {
	tpl := bootLiveTemplate(t)
	tpl.m.SetExecMode(mode)
	for seed := int64(0); seed < chaosSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inj := faultinject.New(seed)
			arm(inj, seed)
			f := attestChaosFleet(t, tpl, inj)
			pids := make([]int, 64)
			for _, r := range f.Replicas() {
				pids[r.Index] = r.Cust.PID()
			}
			ctl := NewController(f, nil)
			res, err := ctl.Run(applyLive(tpl))
			if err != nil {
				t.Fatal(err)
			}
			if inj.Injected() == 0 {
				t.Fatal("armed faults never fired")
			}
			assertAttestedOrQuarantined(t, f, ctl, res, pids)
			if mode != kernel.ModeInterpret {
				var st kernel.BlockCacheStats
				for _, r := range f.Replicas() {
					st.Add(r.Machine.BlockCacheStats())
				}
				if st.Hits == 0 {
					t.Errorf("translate-mode fleet never hit the block cache: %+v", st)
				}
			}
		})
	}
}

// TestFleetChaosAttestBitflip: silent text bit flips during the sweeps.
// Every flip is either repaired in place or the victim is quarantined.
func TestFleetChaosAttestBitflip(t *testing.T) {
	runAttestChaos(t, func(inj *faultinject.Injector, seed int64) {
		inj.FailTransient(faultinject.SiteTextBitflip, 1+int(seed)%29, 1+int(seed)%4)
	})
}

// TestFleetChaosAttestBitflipTranslate is the bitflip sweep with every
// replica executing through the block cache: flips land on pages whose
// decodes are cached (caught only by the generation check — FlipBits
// bypasses the dirty bitmap and the eager flush), and each repair is a
// loud write that must flush the pre-repair blocks. The verification
// attest plus the serving probe prove no repaired page ever executes
// stale cached code.
func TestFleetChaosAttestBitflipTranslate(t *testing.T) {
	runAttestChaosMode(t, kernel.ModeTranslate, func(inj *faultinject.Injector, seed int64) {
		inj.FailTransient(faultinject.SiteTextBitflip, 1+int(seed)%29, 1+int(seed)%4)
	})
}

// TestFleetChaosStoreRot: a store blob silently rots in place on read,
// killing the repair's primary source for every replica that shares it
// (the store is content-addressed and deduplicated). Flips force the
// repairs that read the store; replicas whose expected bytes cannot be
// reconstructed from any surviving version are quarantined.
func TestFleetChaosStoreRot(t *testing.T) {
	runAttestChaos(t, func(inj *faultinject.Injector, seed int64) {
		inj.FailTransient(faultinject.SiteTextBitflip, 1+int(seed)%17, 1+int(seed)%3)
		inj.FailTransient(faultinject.SiteStoreRot, 1+int(seed)%3, 1+int(seed)%2)
	})
}

// TestFleetChaosAttestSkew: the collection channel lies about replica
// roots. The authoritative oracle comparison absorbs every skew — no
// repair, no quarantine, no text ever touched.
func TestFleetChaosAttestSkew(t *testing.T) {
	runAttestChaos(t, func(inj *faultinject.Injector, seed int64) {
		inj.FailTransient(faultinject.SiteAttestSkew, 1+int(seed)%61, 1+int(seed)%5)
	})
}
