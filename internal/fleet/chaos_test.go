package fleet

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/core"
	"github.com/dynacut/dynacut/internal/faultinject"
)

// chaosSeeds is the per-site seed sweep width. Every (site, seed)
// combination must leave the fleet converged: each replica on the new
// version or on its pristine checkpoint, never torn, never dead.
const chaosSeeds = 20

// TestFleetChaosCloneFaults: an injected fault while spawning a
// replica fails fleet construction outright — and must leave the
// template guest untouched and serving.
func TestFleetChaosCloneFaults(t *testing.T) {
	tpl := bootTemplate(t)
	for seed := int64(0); seed < chaosSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inj := faultinject.New(seed)
			inj.FailAt(faultinject.SiteFleetClone, 1+int(seed)%4)
			_, err := New(tpl.m, tpl.pid, Config{
				Replicas: 4, Workers: 2, Core: coreOpts(tpl), FaultHook: inj,
			})
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("want injected clone failure, got %v", err)
			}
			if got := request(tpl.m, tpl.port, "PUT /f data\n"); !strings.Contains(got, "201") {
				t.Fatalf("template damaged by failed spawn: PUT -> %q", got)
			}
			if got := request(tpl.m, tpl.port, "GET /\n"); !strings.Contains(got, "200") {
				t.Fatalf("template not serving after failed spawn: %q", got)
			}
		})
	}
}

// TestFleetChaosWaveFaults: a fault at the wave site aborts one
// replica's rewrite before it starts. Depending on where the fault
// lands (seed-varied hit), the rollout halts at the canary or at a
// later wave — either way every replica must converge.
func TestFleetChaosWaveFaults(t *testing.T) {
	tpl := bootTemplate(t)
	for seed := int64(0); seed < chaosSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inj := faultinject.New(seed)
			inj.FailAt(faultinject.SiteFleetWave, 1+int(seed)%6)
			f, err := New(tpl.m, tpl.pid, Config{
				Replicas: 6, Workers: 2, CanaryShards: 1, WaveSize: 2,
				Core: coreOpts(tpl), FaultHook: inj,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Rollout(disableWebdav(tpl))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Halted {
				t.Fatalf("an aborted replica must halt a zero-threshold rollout: %+v", res.Outcomes)
			}
			if inj.Injected() == 0 {
				t.Fatal("armed wave fault never fired")
			}
			assertConverged(t, f, res, dirDisable)
		})
	}
}

// TestFleetChaosRollbackFaults: the halt path's pristine restore is
// itself broken once by injection; the bounded retry must recover the
// replica, and the fleet must still converge with no torn replica.
func TestFleetChaosRollbackFaults(t *testing.T) {
	tpl := bootTemplate(t)
	for seed := int64(0); seed < chaosSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inj := faultinject.New(seed)
			inj.FailAt(faultinject.SiteRestoreImages, 1)
			f, err := New(tpl.m, tpl.pid, Config{
				Replicas: 6, Workers: 1, CanaryShards: 1, WaveSize: 2,
				Core: coreOpts(tpl), FaultHook: inj,
			})
			if err != nil {
				t.Fatal(err)
			}
			// The canary and wave-1's first replica commit; wave-1's
			// second replica fails pre-commit, halting the rollout and
			// forcing the committed sibling through the faulted
			// rollback path.
			victim := 2
			res, err := f.Rollout(func(r *Replica) (core.Stats, error) {
				if r.Index == victim {
					return core.Stats{}, fmt.Errorf("injected payload failure on replica %d", r.Index)
				}
				return r.Cust.DisableBlocks("webdav-write", tpl.blocks, core.PolicyBlockEntry)
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Halted || res.HaltedWave != 1 {
				t.Fatalf("rollout did not halt at wave 1: %+v", res)
			}
			if got := res.Outcomes[1].Outcome; got != OutcomeRestored {
				t.Fatalf("committed sibling = %v, want restored through faulted rollback", got)
			}
			if inj.Injected() == 0 {
				t.Fatal("armed rollback fault never fired")
			}
			assertConverged(t, f, res, dirDisable)
		})
	}
}
