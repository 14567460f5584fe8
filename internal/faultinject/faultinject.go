// Package faultinject is a deterministic fault-injection harness for
// the checkpoint → rewrite → restore transaction. An Injector is
// installed on a kernel.Machine (Machine.SetFaultHook) and consulted
// at named hook sites inside criu.Dump, criu.Restore, crit.Editor and
// core.Customizer; an armed plan makes the nth hit of a site fail
// with ErrInjected.
//
// Determinism is the whole point: an armed plan fires on a fixed hit
// count, the injector draws no random numbers, and every decision it
// makes is recorded in its event log — so every chaos run is exactly
// reproducible from (seed, plan).
package faultinject

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Hook sites. Dump, restore and edit each expose several steps so a
// single fault can be placed before, inside, or after the point of no
// return of the rewrite transaction.
const (
	// SiteDumpProc fires before each process is checkpointed.
	SiteDumpProc = "criu.dump.proc"
	// SiteDumpPageMap fires before a process's pagemap/pages are dumped.
	SiteDumpPageMap = "criu.dump.pagemap"
	// SiteRestoreProc fires before each process is restored.
	SiteRestoreProc = "criu.restore.proc"
	// SiteRestoreVMA fires before a restored process's VMAs are mapped.
	SiteRestoreVMA = "criu.restore.vma"
	// SiteRestorePages fires before dumped pages are written back.
	SiteRestorePages = "criu.restore.pages"
	// SiteRestoreFiles fires before descriptors are re-attached.
	SiteRestoreFiles = "criu.restore.files"
	// SiteEditWrite fires before each image memory write (crit).
	SiteEditWrite = "crit.edit.write"
	// SiteEditUnmap fires before each image unmap (crit).
	SiteEditUnmap = "crit.edit.unmap"
	// SiteHealth fires at the start of the post-restore health check.
	SiteHealth = "core.health"
	// SiteInjectArm fires between mapping the handler library and
	// arming its sigaction — the partial-failure window where a fault
	// would otherwise leak the injected mapping into the image.
	SiteInjectArm = "core.inject.arm"
	// SiteRestoreImages fires in each try of
	// core.Customizer.RestoreImages, after the guest is killed and
	// before criu.Restore, so a try it fails leaves the guest down. That
	// restore is behind the supervisor's last ladder rung and the
	// fleet's halt and second-chance restores; detail is the try number.
	SiteRestoreImages = "core.restore"

	// Supervisor hook sites (internal/supervise): each fires at the
	// start of one closed-loop action, so chaos runs can kill any rung
	// of the heal → re-enable → disarm → scrub ladder. Its last rung,
	// the pristine restore, fails at SiteRestoreImages.
	//
	// SiteSuperviseHeal fires before false removals are adopted.
	SiteSuperviseHeal = "supervise.heal"
	// SiteSuperviseCanary fires before a scheduled canary probe runs.
	SiteSuperviseCanary = "supervise.canary"
	// SiteSuperviseReenable fires before a feature is force re-enabled
	// (breaker trip / ladder rung 2).
	SiteSuperviseReenable = "supervise.reenable"
	// SiteSuperviseDisarm fires before the everything-back-on rung
	// (EnableAll + patching disarmed).
	SiteSuperviseDisarm = "supervise.disarm"

	// Fleet hook sites (internal/fleet): each fires at the start of
	// one fleet-level action, so chaos runs can break replica spawn,
	// any rollout wave, the journal or the controller; the
	// halt-and-restore path fails at SiteRestoreImages.
	//
	// SiteFleetClone fires before a replica is cloned from the
	// template guest.
	SiteFleetClone = "fleet.clone"
	// SiteFleetWave fires before a replica's rewrite is applied during
	// a rollout wave (canary included); detail is the replica index.
	SiteFleetWave = "fleet.wave"
	// SiteFleetJournalAppend fires before a record is appended to the
	// rollout journal; an injected fault models a torn write (the
	// frame is half-written) and kills the controller. detail is the
	// record kind.
	SiteFleetJournalAppend = "fleet.journal.append"
	// SiteFleetLeaseExpire fires when a worker leases a rollout step;
	// an injected fault kills that worker mid-lease, so the step must
	// be recovered by lease expiry and requeue. detail is the replica
	// index.
	SiteFleetLeaseExpire = "fleet.lease.expire"
	// SiteFleetControllerCrash fires at every journal record boundary
	// inside the rollout controller; an injected fault kills the
	// controller there (Run returns ErrControllerCrashed), leaving the
	// journal for a later ResumeController. detail identifies the
	// boundary (a crashAt* constant in internal/fleet).
	SiteFleetControllerCrash = "fleet.controller.crash"

	// Live-patch hook sites (internal/core's DisableBlocksLive): the
	// fast path never kills the guest, so an injected fault here must
	// unwind any bytes already written and fall back to the checkpoint
	// transaction — the property the livepatch chaos suite checks.
	//
	// SiteLivePatchQuiesce fires before the quiescence loop starts;
	// detail is the root PID.
	SiteLivePatchQuiesce = "core.livepatch.quiesce"
	// SiteLivePatchPatch fires before each block's bytes are patched
	// in the running VMA; detail is the target PID.
	SiteLivePatchPatch = "core.livepatch.patch"
	// SiteLivePatchCommit fires before the patched bytes are committed
	// into the customizer's bookkeeping; detail is the block count.
	SiteLivePatchCommit = "core.livepatch.commit"

	// Silent-corruption hook sites (attestation / anti-entropy). These
	// invert the usual contract: the caller treats a non-nil return not
	// as a failure to surface but as an instruction to corrupt state
	// *silently* and carry on as if nothing happened. No error
	// propagates — the corruption is only observable if the attestation
	// sweep catches it, which is exactly the invariant the chaos suite
	// proves.
	//
	// SiteTextBitflip fires at the start of an attestation hash pass;
	// when armed, the caller flips one bit in a live text page and
	// continues. detail is the root PID.
	SiteTextBitflip = "kernel.text.bitflip"
	// SiteStoreRot fires on each page-blob read from the
	// content-addressed PageStore; when armed, the caller rots the
	// stored blob in place (the rot is persistent) and continues. The
	// read-path re-hash then reports ErrStoreCorrupt. detail is the
	// first key byte.
	SiteStoreRot = "criu.store.rot"
	// SiteAttestSkew fires when the fleet sweep collects a replica's
	// live attestation root; when armed, the *collected* root is
	// corrupted in flight — the replica's text is fine, its report is
	// not. The oracle-authoritative re-attest must clear it. detail is
	// the replica index.
	SiteAttestSkew = "fleet.attest.skew"

	// SiteAttestRepair fires before each in-place page repair write.
	// Unlike the silent sites above this one is loud: an injected fault
	// fails that repair attempt, driving the retry budget and, when
	// exhausted, the quarantine path. detail is the target PID.
	SiteAttestRepair = "core.attest.repair"
	// SiteSuperviseScrub fires before the supervisor's attest-and-scrub
	// ladder rung runs (between disarm and pristine restore).
	SiteSuperviseScrub = "supervise.scrub"
)

// Step-prefix groups: a plan armed on a prefix (FailAt(PrefixRestore,
// n) fails the nth restore step) counts every site sharing it.
const (
	PrefixDump      = "criu.dump."
	PrefixRestore   = "criu.restore."
	PrefixLivePatch = "core.livepatch."
)

// ErrInjected is the sentinel wrapped by every injected failure.
var ErrInjected = errors.New("faultinject: injected fault")

// Event records one injector decision, for reproducibility audits.
type Event struct {
	Site string // hook site that was hit
	Hit  int    // per-plan hit count at the time
	Fail bool   // whether a fault was injected
}

// plan arms failures for sites matching a prefix: the hits numbered
// [at, at+times) fail; times < 0 means every hit from at on fails.
type plan struct {
	prefix string
	at     int
	times  int
	count  int
}

func (pl *plan) active() bool {
	return pl.times < 0 || pl.count < pl.at+pl.times
}

// Injector is a deterministic fault injector. It implements the
// kernel.FaultHook interface. The zero value is not usable; construct
// with New.
type Injector struct {
	mu       sync.Mutex
	seed     int64
	plans    []*plan
	hits     map[string]int
	log      []Event
	reporter func(site string, hit int, injected bool)
}

// New creates an injector labelled with seed. Its decisions depend
// only on the armed plans and the order of hits; the seed names the
// run in every injected error, so a chaos failure reads back as the
// (seed, plan) that reproduces it.
func New(seed int64) *Injector {
	return &Injector{seed: seed, hits: map[string]int{}}
}

// SetReporter installs a callback invoked for every injected fault —
// the kernel.FaultReporter contract. A machine with both this injector
// and an observer installed wires the callback so each injection lands
// in the trace as a fault event, making chaos runs self-explaining.
// nil disables reporting.
func (in *Injector) SetReporter(f func(site string, hit int, injected bool)) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.reporter = f
}

// report invokes the reporter for an injected fault. Caller holds
// in.mu; the callback only feeds the observer, which never calls back
// into the injector, so holding the lock is safe and keeps the event
// order identical to the decision log.
func (in *Injector) report(site string, hit int) {
	if in.reporter != nil {
		in.reporter(site, hit, true)
	}
}

// FailAt arms the nth (1-based) hit of any site matching sitePrefix
// to fail. An exact site name is a valid prefix of itself.
func (in *Injector) FailAt(sitePrefix string, n int) {
	in.FailTransient(sitePrefix, n, 1)
}

// FailTransient arms hits [n, n+times) of sitePrefix to fail; later
// hits succeed again — the transient-fault shape MaxAttempts retries
// are built for. times < 0 fails every hit from n on (a hard fault).
func (in *Injector) FailTransient(sitePrefix string, n, times int) {
	if n < 1 {
		n = 1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.plans = append(in.plans, &plan{prefix: sitePrefix, at: n, times: times})
}

// Fault implements the fault hook: it records the hit and returns a
// non-nil error when an armed plan matches.
func (in *Injector) Fault(site string, detail int) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.hits[site]++
	for _, pl := range in.plans {
		if !strings.HasPrefix(site, pl.prefix) {
			continue
		}
		pl.count++
		if pl.count >= pl.at && pl.active() {
			in.log = append(in.log, Event{Site: site, Hit: pl.count, Fail: true})
			in.report(site, pl.count)
			return fmt.Errorf("%w: %s (hit %d, detail %d, seed %d)",
				ErrInjected, site, pl.count, detail, in.seed)
		}
	}
	in.log = append(in.log, Event{Site: site, Hit: in.hits[site]})
	return nil
}

// Hits returns how many times site was consulted.
func (in *Injector) Hits(site string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[site]
}

// Injected returns how many faults fired.
func (in *Injector) Injected() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, ev := range in.log {
		if ev.Fail {
			n++
		}
	}
	return n
}

// Events returns the decision log in order.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.log...)
}
