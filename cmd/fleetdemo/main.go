// Command fleetdemo runs a fleet-scale customization end to end: one
// web-server guest is booted and profiled, cloned copy-on-write into N
// replicas whose pristine checkpoints deduplicate into a shared page
// store, and then a feature-removal rewrite rolls out across the fleet
// in stages — canary shard first, then bounded waves. With -failat the
// rewrite is sabotaged on one replica, demonstrating the halt: the
// failed wave's committed siblings are restored to their pristine
// checkpoints and later waves never run. With -crash the rollout
// controller itself is killed at the Nth crash-site consultation,
// demonstrating crash recovery: the append-only journal it left behind
// seeds a resumed controller that skips every committed replica and
// finishes the rollout without re-rewriting anything.
//
// With -load the rollout instead runs under open-loop, schedule-driven
// traffic (constant, step-ramp, Poisson or a CSV trace) and the demo
// prints the SLO view: latency percentiles and served/dropped counts
// against a steady-state baseline, plus each replica's downtime span
// measured twice — from the rollout journal's vclock stamps and from
// the service gap the load generator observed — which must agree
// within one bucket.
//
// With -live the rollout takes the live-patch fast path instead of the
// checkpoint transaction: each replica is quiesced at a scheduler-round
// boundary, verified safe (no RIP or saved return address inside an
// affected block), and its text bytes are patched in place — near-zero
// downtime, with automatic fallback to the transaction when a replica
// cannot be proven safe.
//
// With -scrub the rollout runs with attestation sweeps armed while a
// silent bit-flip storm corrupts replica text pages — no error is ever
// returned by the fault; the corruption is only visible to a hash of
// the live bytes. After every wave the controller hashes each replica's
// text against its expected-state oracle and repairs divergence in
// place from the content-addressed page store (no restore, PIDs stay
// put); replicas whose repair budget is exhausted are quarantined and
// drained from later waves. The demo prints each sweep's verdicts and
// then proves the invariant: every replica is attested-correct or
// quarantined, never silently wrong.
//
// Usage:
//
//	go run ./cmd/fleetdemo [-replicas 8] [-workers 4] [-wave 3] [-failat -1] [-crash -1] [-live] [-o fleet.jsonl]
//	go run ./cmd/fleetdemo -load [-live] [-sched constant|ramp|poisson|trace.csv] [-interval 10000] [-horizon 1200000]
//	go run ./cmd/fleetdemo -scrub [-replicas 8] [-flipevery 3]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/dynacut/dynacut"
	"github.com/dynacut/dynacut/internal/fleet"
	"github.com/dynacut/dynacut/internal/slo"
)

// setup boots and profiles the template web server every demo mode
// starts from.
func setup() (*dynacut.WebServerApp, *dynacut.Session, []dynacut.AbsBlock, uint64, error) {
	app, err := dynacut.BuildWebServer(dynacut.WebServerConfig{Name: "lighttpd", Port: 8080})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	sess, err := dynacut.StartServer(app.Exe, []*dynacut.Binary{app.Libc}, app.Config.Port)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	blocks, err := sess.ProfileFeatures(
		[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n"},
		[]string{"PUT /f data\n", "DELETE /f\n"},
	)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	errAddr, err := sess.SymbolAddr("resp_403")
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return app, sess, blocks, errAddr, nil
}

// prepLive pre-installs the INT3 handler library in the template guest
// so every clone qualifies for the live-patch fast path, and returns
// the (possibly re-rooted) template PID.
func prepLive(sess *dynacut.Session, errAddr uint64) (int, error) {
	cust, err := dynacut.NewCustomizer(sess.Machine, sess.PID(), dynacut.CustomizerOptions{RedirectTo: errAddr})
	if err != nil {
		return 0, err
	}
	if _, err := cust.InstallHandler(); err != nil {
		return 0, err
	}
	return cust.PID(), nil
}

// stepMode renders how a replica's rewrite was applied.
func stepMode(s dynacut.RewriteStats) string {
	switch {
	case s.LivePatched:
		return "live-patched"
	case s.FellBack:
		return "fell-back"
	default:
		return "txn"
	}
}

func run(replicas, workers, wave, failat, crash int, live bool, out string) error {
	app, sess, blocks, errAddr, err := setup()
	if err != nil {
		return err
	}

	fmt.Printf("== spawn %d CoW replicas from the template ==\n", replicas)
	cfg := dynacut.FleetConfig{
		Replicas:     replicas,
		Workers:      workers,
		CanaryShards: 1,
		WaveSize:     wave,
		Core: dynacut.CustomizerOptions{
			RedirectTo:  errAddr,
			HealthCheck: dynacut.HealthProbe(app.Config.Port, "GET /\n", "200"),
		},
	}
	if crash >= 0 {
		// Arm the controller's death at its Nth crash-site consultation
		// (the controller checks the site before and after every journal
		// append, so hit N lands mid-rollout for small N).
		inj := dynacut.NewFaultInjector(1)
		inj.FailAt("fleet.controller.crash", crash)
		cfg.FaultHook = inj
	}
	rootPID := sess.PID()
	if live {
		if rootPID, err = prepLive(sess, errAddr); err != nil {
			return err
		}
	}
	f, err := fleet.New(sess.Machine, rootPID, cfg)
	if err != nil {
		return err
	}
	st := f.Store().Stats()
	fmt.Printf("page store: %d sets, %d unique pages (%d deduplicated), %d blob bytes\n\n",
		st.Sets, st.UniquePages, st.DedupHits, st.StoredBytes)

	if live {
		fmt.Println("== staged rollout: disable webdav-write fleet-wide (live-patch fast path) ==")
	} else {
		fmt.Println("== staged rollout: disable webdav-write fleet-wide ==")
	}
	apply := func(r *dynacut.FleetReplica) (dynacut.RewriteStats, error) {
		if r.Index == failat {
			return dynacut.RewriteStats{}, fmt.Errorf("sabotaged replica %d", r.Index)
		}
		if live {
			return r.Cust.DisableBlocksLive("webdav-write", blocks, dynacut.PolicyBlockEntry)
		}
		return r.Cust.DisableBlocks("webdav-write", blocks, dynacut.PolicyBlockEntry)
	}
	c := dynacut.NewRolloutController(f, nil)
	res, err := c.Run(apply)
	if errors.Is(err, dynacut.ErrControllerCrashed) {
		jb := c.Journal().Bytes()
		recs, derr := fleet.DecodeJournal(jb)
		if derr != nil {
			return derr
		}
		fmt.Printf("\ncontroller CRASHED mid-rollout: %v\n", firstLine(err.Error()))
		fmt.Printf("journal left behind: %d records, %d bytes; committed so far: %d/%d\n",
			len(recs), len(jb), res.Committed(), replicas)
		fmt.Println("\n== resume from the journal ==")
		c, err = dynacut.ResumeRolloutController(f, jb)
		if err != nil {
			return err
		}
		res, err = c.Run(apply)
		if err == nil {
			fmt.Printf("resumed: %d replicas skipped as already committed, 0 rewrites repeated\n",
				res.SkippedCommitted)
		}
	}
	if err != nil {
		return err
	}
	for _, w := range res.Waves {
		kind := "wave  "
		if w.Canary {
			kind = "canary"
		}
		fmt.Printf("%s %d: replicas %v, failures %d\n", kind, w.Index, w.Replicas, w.Failures)
	}
	if res.Halted {
		fmt.Printf("rollout HALTED at wave %d\n", res.HaltedWave)
	}
	fmt.Printf("serial cost %d vticks, %d-lane makespan %d vticks (%.1fx)\n\n",
		res.SerialTicks, workers, res.FleetTicks,
		float64(res.SerialTicks)/float64(max(res.FleetTicks, 1)))

	fmt.Println("== per-replica convergence ==")
	for _, o := range res.Outcomes {
		r := f.Replicas()[o.Index]
		put := firstLine(probe(r.Machine, app.Config.Port, "PUT /f data\n"))
		get := firstLine(probe(r.Machine, app.Config.Port, "GET /\n"))
		note := ""
		if o.Err != nil {
			if errors.Is(o.Err, fleet.ErrHalted) {
				note = "  (halted)"
			} else {
				note = fmt.Sprintf("  (%v)", firstLine(o.Err.Error()))
			}
		}
		fmt.Printf("replica %2d  %-10s  %-12s  PUT->%-28q GET->%q%s\n",
			o.Index, o.Outcome, stepMode(o.Stats), put, get, note)
	}
	fmt.Printf("committed: %d/%d\n", res.Committed(), replicas)

	fmt.Println("\n== fleet timeline (merged per-replica streams) ==")
	shown := 0
	for _, ev := range f.Timeline() {
		if !strings.Contains(ev.Name, "fleet.") {
			continue
		}
		line := fmt.Sprintf("%10d  %-11s %s", ev.VClock, ev.Kind, ev.Name)
		if ev.N != 0 {
			line += fmt.Sprintf("  n=%d", ev.N)
		}
		fmt.Println(line)
		if shown++; shown >= 24 {
			fmt.Println("  ...")
			break
		}
	}

	if out != "" {
		fh, err := os.Create(out)
		if err != nil {
			return err
		}
		defer fh.Close()
		for _, ev := range f.Timeline() {
			fmt.Fprintf(fh, "%+v\n", ev)
		}
		fmt.Printf("\nwrote merged timeline to %s\n", out)
	}
	return nil
}

// runScrub demonstrates the anti-entropy attestation sweep: a staged
// live-patch rollout with Scrub armed, under a silent text bit-flip
// storm, ends with every replica attested-correct or quarantined.
func runScrub(replicas, workers, wave, flipevery int) error {
	app, sess, blocks, errAddr, err := setup()
	if err != nil {
		return err
	}
	rootPID, err := prepLive(sess, errAddr)
	if err != nil {
		return err
	}

	// The storm: every flipevery-th consultation of the bit-flip site
	// silently XORs one byte of a text page. No error anywhere.
	inj := dynacut.NewFaultInjector(1)
	inj.FailTransient("kernel.text.bitflip", flipevery, 2)

	fmt.Printf("== spawn %d CoW replicas; attestation scrub armed, bit-flip storm every %d checks ==\n",
		replicas, flipevery)
	cfg := dynacut.FleetConfig{
		Replicas:     replicas,
		Workers:      workers,
		CanaryShards: 1,
		WaveSize:     wave,
		Scrub:        true,
		FaultHook:    inj,
		Core: dynacut.CustomizerOptions{
			RedirectTo:  errAddr,
			HealthCheck: dynacut.HealthProbe(app.Config.Port, "GET /\n", "200"),
		},
	}
	f, err := fleet.New(sess.Machine, rootPID, cfg)
	if err != nil {
		return err
	}

	fmt.Println("\n== staged rollout: disable webdav-write, scrub after every wave ==")
	c := dynacut.NewRolloutController(f, nil)
	res, err := c.Run(func(r *dynacut.FleetReplica) (dynacut.RewriteStats, error) {
		return r.Cust.DisableBlocksLive("webdav-write", blocks, dynacut.PolicyBlockEntry)
	})
	if err != nil {
		return err
	}
	fmt.Printf("committed %d/%d, %d silent faults injected\n\n", res.Committed(), replicas, inj.Injected())

	fmt.Println("== attestation sweeps (one per wave) ==")
	for _, sw := range res.Sweeps {
		fmt.Printf("sweep after wave %d: quorum %d/%d on the modal root, %d divergent\n",
			sw.Wave, sw.Quorum, sw.Quorum+sw.Divergent, sw.Divergent)
		for _, ra := range sw.Replicas {
			if ra.Verdict == fleet.VerdictClean {
				continue
			}
			line := fmt.Sprintf("  replica %2d  %-9v  %d pages checked", ra.Index, ra.Verdict, ra.Checked)
			if ra.Repaired > 0 {
				line += fmt.Sprintf(", %d repaired in place (try %d)", ra.Repaired, ra.Tries)
			}
			if ra.Err != nil {
				line += fmt.Sprintf("  (%v)", firstLine(ra.Err.Error()))
			}
			fmt.Println(line)
		}
		fmt.Printf("  totals: %d repaired, %d skews absorbed, %d quarantined\n",
			sw.Repaired, sw.Skews, sw.Quarantined)
	}

	// Journal ledger: repairs must never surface as restores.
	var attests, repairs, quarantines int
	for _, rec := range c.Journal().Records() {
		switch rec.Kind {
		case fleet.RecAttest:
			attests++
		case fleet.RecRepair:
			repairs++
		case fleet.RecQuarantine:
			quarantines++
		}
	}
	fmt.Printf("\njournal (v3): %d attest, %d repair, %d quarantine records\n", attests, repairs, quarantines)

	fmt.Println("\n== the invariant: attested-correct or quarantined, never silently wrong ==")
	for _, r := range f.Replicas() {
		r.Machine.SetFaultHook(nil) // disarm: verification must observe, not inject
	}
	f.Store().SetFaultHook(nil)
	wrong := 0
	for _, r := range f.Replicas() {
		if r.Quarantined() {
			fmt.Printf("replica %2d  QUARANTINED (drained from service)\n", r.Index)
			continue
		}
		rep, aerr := r.Cust.Attest()
		verdict := "attested clean"
		if aerr != nil || !rep.Clean() {
			verdict = "SILENTLY DIVERGED"
			wrong++
		}
		get := firstLine(probe(r.Machine, app.Config.Port, "GET /\n"))
		put := firstLine(probe(r.Machine, app.Config.Port, "PUT /f data\n"))
		fmt.Printf("replica %2d  %-14s  pid %d  GET->%-24q PUT->%q\n",
			r.Index, verdict, r.Cust.PID(), get, put)
	}
	fmt.Printf("serving %d/%d replicas, %d silently wrong\n", len(f.Active()), replicas, wrong)
	return nil
}

// pickSchedule maps the -sched flag to a load schedule: a builtin
// name, or a path to a CSV trace ("invocations[,payload]" per slot).
func pickSchedule(name string, interval, bucket uint64) (dynacut.LoadSchedule, error) {
	switch name {
	case "constant":
		return dynacut.NewConstantSchedule(interval), nil
	case "ramp":
		// Stress mode: start at ~1 arrival per bucket and add one more
		// each bucket.
		return dynacut.NewStepRampSchedule(1, 1, bucket), nil
	case "poisson":
		return dynacut.NewPoissonSchedule(interval, 42), nil
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("-sched %q is not a builtin and not a readable trace: %w", name, err)
	}
	return dynacut.ParseLoadTrace(string(data), bucket)
}

func fmtReport(tag string, r *dynacut.SLOReport) {
	fmt.Printf("%-14s p50 %6d  p99 %6d  p999 %6d vticks   served/vtick %.5f   served %d/%d  dropped %d  errors %d\n",
		tag, r.P50, r.P99, r.P999, r.ServedPerVtick, r.Served, r.Total, r.Dropped, r.Errors)
}

// runLoad measures a staged rollout under open-loop load against a
// steady-state baseline of the same fleet shape and schedule.
func runLoad(replicas, workers, wave int, live bool, sched string, interval, horizon uint64) error {
	app, sess, blocks, errAddr, err := setup()
	if err != nil {
		return err
	}
	const bucket = 100_000
	schedule, err := pickSchedule(sched, interval, bucket)
	if err != nil {
		return err
	}
	fcfg := dynacut.FleetConfig{
		Replicas:     replicas,
		Workers:      workers,
		CanaryShards: 1,
		WaveSize:     wave,
		Core: dynacut.CustomizerOptions{
			RedirectTo: errAddr,
			// Charge the modelled interruption so one lighttpd
			// rewrite spans about three buckets: a deterministic
			// span the demo can cross-check.
			TicksPerSecond: 2_300_000_000,
		},
	}
	cfg := dynacut.SLOConfig{
		Port:        app.Config.Port,
		Schedule:    schedule,
		Mix:         dynacut.NewLoadMix(dynacut.LoadRequest{Payload: "GET /\n", Weight: 4}, dynacut.LoadRequest{Payload: "HEAD /\n"}),
		Horizon:     horizon,
		BucketTicks: bucket,
		// Poll finer than the arrival gap so boundary responses are
		// stamped before the rewrite's hold point — keeps the observed
		// service gap flush with the journal's charged span.
		PollTicks: interval / 2,
	}
	apply := func(r *dynacut.FleetReplica) (dynacut.RewriteStats, error) {
		if live {
			return r.Cust.DisableBlocksLive("webdav-write", blocks, dynacut.PolicyBlockEntry)
		}
		return r.Cust.DisableBlocks("webdav-write", blocks, dynacut.PolicyBlockEntry)
	}
	rootPID := sess.PID()
	if live {
		if rootPID, err = prepLive(sess, errAddr); err != nil {
			return err
		}
	}

	fmt.Printf("== open-loop load: %s schedule, horizon %d vticks, %d replicas ==\n", sched, horizon, replicas)
	baseFleet, err := fleet.New(sess.Machine, rootPID, fcfg)
	if err != nil {
		return err
	}
	steady, err := dynacut.SteadyStateLoad(baseFleet, cfg)
	if err != nil {
		return err
	}
	fmtReport("steady state:", steady)

	if live {
		fmt.Println("\n== same load while the live patch disables webdav-write ==")
	} else {
		fmt.Println("\n== same load while the rollout disables webdav-write ==")
	}
	rep, _, err := dynacut.RolloutUnderLoad(sess.Machine, rootPID, fcfg, cfg, apply)
	if err != nil {
		return err
	}
	fmtReport("under rollout:", rep)
	fmt.Printf("rollout committed %d/%d replicas\n", rep.Rollout.Committed(), replicas)
	if live {
		for _, o := range rep.Rollout.Outcomes {
			if !o.Stats.LivePatched {
				fmt.Printf("replica %2d applied via %s (%s)\n", o.Index, stepMode(o.Stats), o.Stats.FallbackReason)
			}
		}
	}

	fmt.Println("\n== per-replica downtime: journal stamps vs observed service gaps ==")
	obs := map[int]slo.Span{}
	for _, s := range rep.ObservedSpans {
		obs[s.Replica] = s
	}
	for _, js := range rep.JournalSpans {
		os, ok := obs[js.Replica]
		verdict := "NO OBSERVED GAP"
		if ok {
			verdict = "disagree"
			if js.Matches(os, bucket) {
				verdict = "agree within one bucket"
			}
		}
		fmt.Printf("replica %2d  journal %7d vticks   observed gap %7d vticks   %s\n",
			js.Replica, js.Ticks(), os.Ticks(), verdict)
	}
	return nil
}

// probe sends one request to a replica guest and returns the response
// (whatever arrived, on error).
func probe(m *dynacut.Machine, port uint16, req string) string {
	resp, _, _ := m.Exchange(port, []byte(req), 2_000_000)
	return string(resp)
}

func firstLine(s string) string {
	for i := range s {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

func main() {
	replicas := flag.Int("replicas", 8, "fleet size")
	workers := flag.Int("workers", 4, "rewrite worker pool size")
	wave := flag.Int("wave", 3, "replicas per post-canary wave")
	failat := flag.Int("failat", -1, "sabotage the rewrite on this replica index (-1: none)")
	crash := flag.Int("crash", -1, "kill the controller at the Nth crash-site hit, then resume from the journal (-1: none)")
	out := flag.String("o", "", "write the merged timeline to this file")
	load := flag.Bool("load", false, "measure the rollout under open-loop load instead")
	scrub := flag.Bool("scrub", false, "run attestation sweeps under a silent bit-flip storm instead")
	flipevery := flag.Int("flipevery", 3, "bit-flip storm period (with -scrub): corrupt on every Nth site check")
	live := flag.Bool("live", false, "use the live-patch fast path (INT3 patch at a quiesced round; no checkpoint/restore)")
	sched := flag.String("sched", "constant", "load schedule: constant, ramp, poisson, or a trace CSV path")
	interval := flag.Uint64("interval", 10_000, "mean inter-arrival gap in vticks (constant/poisson)")
	horizon := flag.Uint64("horizon", 1_200_000, "load run length in vticks")
	flag.Parse()
	var err error
	if *scrub {
		err = runScrub(*replicas, *workers, *wave, *flipevery)
	} else if *load {
		err = runLoad(*replicas, *workers, *wave, *live, *sched, *interval, *horizon)
	} else {
		err = run(*replicas, *workers, *wave, *failat, *crash, *live, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetdemo: %v\n", err)
		os.Exit(1)
	}
}
