// Benchmark harness: one benchmark per table and figure of the
// paper's evaluation (§4), plus micro-benchmarks and policy
// ablations. Run everything with
//
//	go test -bench=. -benchmem
//
// Each figure benchmark regenerates the figure's data and reports its
// headline numbers as custom metrics; the first iteration prints the
// full table (EXPERIMENTS.md records paper-vs-measured values).
package dynacut_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/dynacut/dynacut"
	"github.com/dynacut/dynacut/internal/crit"
	"github.com/dynacut/dynacut/internal/experiments"
)

// printOnce emits a figure's rendering on the first iteration only.
func printOnce(b *testing.B, i int, title, body string) {
	b.Helper()
	if i == 0 {
		fmt.Printf("\n--- %s ---\n%s", title, body)
	}
}

func BenchmarkFigure2_LivenessMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, "Figure 2: basic-block liveness", experiments.FormatF2(rows))
		for _, r := range rows {
			if r.Program == "lighttpd" {
				b.ReportMetric(float64(r.UnusedBlocks)/float64(r.TotalBlocks)*100, "lighttpd-unused-%")
			}
		}
	}
}

func BenchmarkFigure6_FeatureRemoval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, "Figure 6: feature-removal overhead", experiments.FormatF6(rows))
		for _, r := range rows {
			b.ReportMetric(float64(r.Total().Microseconds()), r.App+"-total-us")
		}
	}
}

func BenchmarkFigure7_InitRemoval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure7(!testing.Short())
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, "Figure 7: init-code removal cost", experiments.FormatF7(rows))
		for _, r := range rows {
			if r.App == "600.perlbench_s" || r.App == "lighttpd" {
				b.ReportMetric(float64(r.CodeUpdate.Microseconds()), r.App+"-update-us")
			}
		}
	}
}

func BenchmarkFigure8_ServiceInterruption(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, "Figure 8: Redis-like throughput timeline", experiments.FormatF8(res))
		if !res.ServerSurvived {
			b.Fatal("server died during rewrites")
		}
	}
}

func BenchmarkFigure9_InitBlocks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure9(!testing.Short())
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, "Figure 9: executed vs removed basic blocks", experiments.FormatF9(rows))
		for _, r := range rows {
			if r.App == "nginx" {
				b.ReportMetric(r.RemovedPct*100, "nginx-removed-%")
			}
		}
	}
}

func BenchmarkFigure10_LiveBlocks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, "Figure 10: live basic blocks over time", experiments.FormatF10(res))
		b.ReportMetric(res.MaxPct*100, "dynacut-max-live-%")
		b.ReportMetric(res.RazorPct*100, "razor-live-%")
		b.ReportMetric(res.ChiselPct*100, "chisel-live-%")
	}
}

func BenchmarkTable1_CVEMitigation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, "Table 1: Redis CVE mitigation", experiments.FormatT1(rows))
		mitigated := 0
		for _, r := range rows {
			if r.BlockedMitigated {
				mitigated++
			}
		}
		b.ReportMetric(float64(mitigated), "CVEs-mitigated")
	}
}

func BenchmarkSecurity_PLTRemoval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SecurityPLT()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, "Security: executed-PLT removal (ret2plt)", experiments.FormatPLT(rows))
		for _, r := range rows {
			b.ReportMetric(float64(r.RemovedPLT), r.App+"-plt-removed")
		}
	}
}

func BenchmarkSecurity_SyscallSpecialization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.SecuritySeccomp()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, "Security: temporal syscall specialization (§5)",
			experiments.FormatSeccomp(res))
		b.ReportMetric(float64(res.AllowedSyscalls), "allowed-syscalls")
	}
}

func BenchmarkSecurity_BROP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.SecurityBROP()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, "Security: BROP mitigation", experiments.FormatBROP(res))
		b.ReportMetric(float64(res.VanillaRounds), "vanilla-rounds")
		b.ReportMetric(float64(res.ProtectedRounds), "protected-rounds")
	}
}

func BenchmarkAblation_TraceQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationTraceQuality()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, "Ablation: profiling-quality sensitivity (§5)",
			experiments.FormatAblation(rows))
		b.ReportMetric(float64(rows[0].FalseRemovals), "false-rm-smallest-profile")
		b.ReportMetric(float64(rows[len(rows)-1].FalseRemovals), "false-rm-fullest-profile")
	}
}

// ---------------------------------------------------------------------------
// Ablation: removal-policy cost (DESIGN.md's policy trade-off)

func benchmarkPolicy(b *testing.B, policy dynacut.Policy) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		app, err := dynacut.BuildWebServer(dynacut.WebServerConfig{Name: "lighttpd", Port: 8080, InitRoutines: 64})
		if err != nil {
			b.Fatal(err)
		}
		sess, err := dynacut.StartServer(app.Exe, []*dynacut.Binary{app.Libc}, app.Config.Port)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range experiments.WantedWeb {
			if _, err := sess.Request(r); err != nil {
				b.Fatal(err)
			}
		}
		serving, err := sess.SnapshotPhase("serving")
		if err != nil {
			b.Fatal(err)
		}
		blocks := dynacut.IdentifyInitBlocks(sess.InitGraph(), serving, app.Config.Name)
		cust, err := dynacut.NewCustomizer(sess.Machine, sess.PID(), dynacut.CustomizerOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		stats, err := cust.DisableBlocks("init", blocks, policy)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if i == 0 {
			b.Logf("policy %v: %d blocks, %d pages unmapped, %v total",
				policy, stats.BlocksPatched, stats.PagesUnmapped, stats.Total())
		}
	}
}

func BenchmarkAblation_PolicyBlockEntry(b *testing.B) { benchmarkPolicy(b, dynacut.PolicyBlockEntry) }
func BenchmarkAblation_PolicyWipeBlocks(b *testing.B) { benchmarkPolicy(b, dynacut.PolicyWipeBlocks) }
func BenchmarkAblation_PolicyUnmapPages(b *testing.B) { benchmarkPolicy(b, dynacut.PolicyUnmapPages) }

// ---------------------------------------------------------------------------
// Micro-benchmarks: the primitive costs behind the figures.

func buildBenchSession(b *testing.B) *dynacut.Session {
	b.Helper()
	app, err := dynacut.BuildWebServer(dynacut.WebServerConfig{Name: "lighttpd", Port: 8080})
	if err != nil {
		b.Fatal(err)
	}
	sess, err := dynacut.StartServer(app.Exe, []*dynacut.Binary{app.Libc}, app.Config.Port)
	if err != nil {
		b.Fatal(err)
	}
	return sess
}

func BenchmarkMicro_CheckpointDump(b *testing.B) {
	sess := buildBenchSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynacut.Dump(sess.Machine, sess.PID(), dynacut.DumpOpts{ExecPages: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Observer overhead: the same rewrite and dump loops with
// the observability layer detached (nil — the zero-overhead contract)
// and attached, so BENCH json records both sides of the comparison.

func benchmarkObserverRewrite(b *testing.B, o *dynacut.Observer) {
	sess := buildBenchSession(b)
	cust, err := dynacut.NewCustomizer(sess.Machine, sess.PID(), dynacut.CustomizerOptions{
		Observer: o,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cust.Rewrite(func(ed *crit.Editor, pids []int) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if o != nil {
		b.ReportMetric(float64(o.Seq()), "trace-events")
	}
}

func BenchmarkObserver_RewriteNil(b *testing.B) { benchmarkObserverRewrite(b, nil) }
func BenchmarkObserver_RewriteAttached(b *testing.B) {
	benchmarkObserverRewrite(b, dynacut.NewObserver(0))
}

func benchmarkObserverDump(b *testing.B, o *dynacut.Observer) {
	sess := buildBenchSession(b)
	if o != nil {
		sess.Machine.SetObserver(o)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynacut.Dump(sess.Machine, sess.PID(), dynacut.DumpOpts{ExecPages: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObserver_DumpNil(b *testing.B) { benchmarkObserverDump(b, nil) }
func BenchmarkObserver_DumpAttached(b *testing.B) {
	benchmarkObserverDump(b, dynacut.NewObserver(0))
}

func BenchmarkMicro_DumpRestoreCycle(b *testing.B) {
	sess := buildBenchSession(b)
	pid := sess.PID()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := dynacut.Dump(sess.Machine, pid, dynacut.DumpOpts{ExecPages: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Machine.Kill(pid); err != nil {
			b.Fatal(err)
		}
		procs, _, err := dynacut.Restore(sess.Machine, set)
		if err != nil {
			b.Fatal(err)
		}
		pid = procs[0].PID()
	}
}

func BenchmarkMicro_ImageMarshal(b *testing.B) {
	sess := buildBenchSession(b)
	set, err := dynacut.Dump(sess.Machine, sess.PID(), dynacut.DumpOpts{ExecPages: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob := set.Marshal()
		if len(blob) == 0 {
			b.Fatal("empty blob")
		}
	}
}

func BenchmarkMicro_GuestRequest(b *testing.B) {
	sess := buildBenchSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := sess.Request("GET /\n")
		if err != nil || !strings.Contains(resp, "200") {
			b.Fatalf("resp=%q err=%v", resp, err)
		}
	}
}

func BenchmarkMicro_StaticCFG(b *testing.B) {
	app, err := dynacut.BuildWebServer(dynacut.WebServerConfig{Name: "lighttpd", Port: 8080})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := dynacut.AnalyzeCFG(app.Exe)
		if cfg.Count() == 0 {
			b.Fatal("empty CFG")
		}
	}
}

func BenchmarkMicro_TraceDiff(b *testing.B) {
	sess := buildBenchSession(b)
	for _, r := range experiments.WantedWeb {
		if _, err := sess.Request(r); err != nil {
			b.Fatal(err)
		}
	}
	wanted, err := sess.SnapshotPhase("wanted")
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range experiments.UndesiredWeb {
		if _, err := sess.Request(r); err != nil {
			b.Fatal(err)
		}
	}
	undesired, err := sess.SnapshotPhase("undesired")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := dynacut.DiffGraphs(undesired, wanted)
		if d.Count() == 0 {
			b.Fatal("empty diff")
		}
	}
}

// BenchmarkMicro_BootFromScratch vs BenchmarkMicro_RestoreCustomized
// quantify the paper's §4.1 footnote: resuming a customized process
// image is faster than booting through the whole initialization
// sequence again.
func BenchmarkMicro_BootFromScratch(b *testing.B) {
	app, err := dynacut.BuildWebServer(dynacut.WebServerConfig{
		Name: "lighttpd", Port: 8080, InitRoutines: 128,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynacut.StartServer(app.Exe, []*dynacut.Binary{app.Libc}, app.Config.Port); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_RestoreCustomized(b *testing.B) {
	app, err := dynacut.BuildWebServer(dynacut.WebServerConfig{
		Name: "lighttpd", Port: 8080, InitRoutines: 128,
	})
	if err != nil {
		b.Fatal(err)
	}
	sess, err := dynacut.StartServer(app.Exe, []*dynacut.Binary{app.Libc}, app.Config.Port)
	if err != nil {
		b.Fatal(err)
	}
	set, err := dynacut.Dump(sess.Machine, sess.PID(), dynacut.DumpOpts{ExecPages: true})
	if err != nil {
		b.Fatal(err)
	}
	blob := set.Marshal()
	binaries := map[string][]byte{}
	for _, name := range []string{app.Exe.Name, app.Libc.Name} {
		data, err := sess.Machine.ReadFile(name)
		if err != nil {
			b.Fatal(err)
		}
		binaries[name] = data
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := dynacut.NewMachine()
		for name, data := range binaries {
			m.WriteFile(name, data)
		}
		shipped, err := dynacut.UnmarshalImages(blob)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := dynacut.Restore(m, shipped); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_BuildWebServer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dynacut.BuildWebServer(dynacut.WebServerConfig{Name: "lighttpd", Port: 8080}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSupervisorOverhead measures the request-path cost of the
// attached closed-loop supervisor. "bare" is the baseline; "attached"
// adds the tick watchdog firing at the supervisor's default poll
// cadence (every 64 ticks) with nothing to heal (the pure poll cost);
// "canaried" adds the end-to-end health probe at its default cadence
// (every 512 ticks) — the full steady-state configuration.
func BenchmarkSupervisorOverhead(b *testing.B) {
	run := func(b *testing.B, attach bool, canary bool) {
		app, err := dynacut.BuildWebServer(dynacut.WebServerConfig{Name: "lighttpd", Port: 8080})
		if err != nil {
			b.Fatal(err)
		}
		sess, err := dynacut.StartServer(app.Exe, []*dynacut.Binary{app.Libc}, app.Config.Port)
		if err != nil {
			b.Fatal(err)
		}
		cust, err := dynacut.NewCustomizer(sess.Machine, sess.PID(), dynacut.CustomizerOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if attach {
			cfg := dynacut.SupervisorConfig{}
			if canary {
				cfg.Canary = sess.Canary("GET /\n", "200")
			}
			sup := dynacut.NewSupervisor(sess.Machine, cust, cfg)
			if err := sup.Attach(); err != nil {
				b.Fatal(err)
			}
			defer sup.Detach()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if resp := sess.MustRequest("GET /\n"); !strings.Contains(resp, "200") {
				b.Fatalf("GET -> %q (%v)", resp, sess.LastErr)
			}
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, false, false) })
	b.Run("attached", func(b *testing.B) { run(b, true, false) })
	b.Run("canaried", func(b *testing.B) { run(b, true, true) })
}

// BenchmarkFleetRollout measures the tentpole of fleet-scale
// customization: one profiled template cloned copy-on-write into N
// replicas, then the webdav-removal rewrite rolled out across all of
// them, serial (1 worker) vs pooled. The headline metric is virtual
// ticks: SerialTicks sums every replica's rewrite cost on the guest
// clock, FleetTicks is the LPT packing of those costs into the worker
// lanes — host-independent numbers the 1-CPU CI runner can't distort.
func BenchmarkFleetRollout(b *testing.B) {
	app, err := dynacut.BuildWebServer(dynacut.WebServerConfig{Name: "lighttpd", Port: 8080})
	if err != nil {
		b.Fatal(err)
	}
	sess, err := dynacut.StartServer(app.Exe, []*dynacut.Binary{app.Libc}, app.Config.Port)
	if err != nil {
		b.Fatal(err)
	}
	blocks, err := sess.ProfileFeatures(
		[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n"},
		[]string{"PUT /f data\n", "DELETE /f\n"},
	)
	if err != nil {
		b.Fatal(err)
	}
	errAddr, err := sess.SymbolAddr("resp_403")
	if err != nil {
		b.Fatal(err)
	}

	// The health probe drives each replica's guest clock through a
	// real request, so per-replica Ticks reflect the full
	// rewrite-and-verify cycle rather than flooring at 1.
	health := dynacut.HealthProbe(app.Config.Port, "GET /\n", "200")

	run := func(b *testing.B, replicas, workers int) {
		for i := 0; i < b.N; i++ {
			f, err := dynacut.NewFleetFromSession(sess, dynacut.FleetConfig{
				Replicas: replicas,
				Workers:  workers,
				WaveSize: replicas, // one canary, then everything in one wave
				Core: dynacut.CustomizerOptions{
					RedirectTo:  errAddr,
					HealthCheck: health,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := f.Rollout(func(r *dynacut.FleetReplica) (dynacut.RewriteStats, error) {
				return r.Cust.DisableBlocks("webdav-write", blocks, dynacut.PolicyBlockEntry)
			})
			if err != nil {
				b.Fatal(err)
			}
			if got := res.Committed(); got != replicas {
				b.Fatalf("committed %d/%d: %+v", got, replicas, res.Outcomes)
			}
			if i == 0 {
				st := f.Store().Stats()
				b.ReportMetric(float64(res.SerialTicks), "serial-vticks")
				b.ReportMetric(float64(res.FleetTicks), "fleet-vticks")
				b.ReportMetric(float64(res.SerialTicks)/float64(res.FleetTicks), "vtick-speedup")
				b.ReportMetric(float64(st.StoredBytes), "store-bytes")
				b.ReportMetric(float64(st.DedupHits), "dedup-pages")
			}
		}
	}
	for _, replicas := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("replicas=%d/serial", replicas), func(b *testing.B) { run(b, replicas, 1) })
		b.Run(fmt.Sprintf("replicas=%d/pooled", replicas), func(b *testing.B) { run(b, replicas, 8) })
	}
}

// BenchmarkFleetSpawn is the spawn profile: a booted lighttpd template
// cloned into a 16-replica fleet, each replica with its customizer and
// its pristine checkpoint deposited in the shared page store. It
// reports what one replica costs to spawn, in time and in heap
// allocations.
func BenchmarkFleetSpawn(b *testing.B) {
	const replicas = 16
	app, err := dynacut.BuildWebServer(dynacut.WebServerConfig{Name: "lighttpd", Port: 8080})
	if err != nil {
		b.Fatal(err)
	}
	sess, err := dynacut.StartServer(app.Exe, []*dynacut.Binary{app.Libc}, app.Config.Port)
	if err != nil {
		b.Fatal(err)
	}
	errAddr, err := sess.SymbolAddr("resp_403")
	if err != nil {
		b.Fatal(err)
	}
	cfg := dynacut.FleetConfig{
		Replicas: replicas,
		WaveSize: replicas,
		Core: dynacut.CustomizerOptions{
			RedirectTo:  errAddr,
			HealthCheck: dynacut.HealthProbe(app.Config.Port, "GET /\n", "200"),
		},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynacut.NewFleetFromSession(sess, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N * replicas)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/n, "us/replica")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/replica")
}

// BenchmarkFleetControllerScale pushes the event-driven rollout
// controller to fleet scale: 256 and 1024 replicas through the leased
// work queue with a pool of 8 worker lanes. The headline is makespan —
// fleet-vticks, the virtual-clock finish time of the last lane —
// against serial-vticks, the one-lane sum; journal-records and
// journal-bytes size the crash-recovery log the rollout leaves behind.
func BenchmarkFleetControllerScale(b *testing.B) {
	app, err := dynacut.BuildWebServer(dynacut.WebServerConfig{Name: "lighttpd", Port: 8080})
	if err != nil {
		b.Fatal(err)
	}
	sess, err := dynacut.StartServer(app.Exe, []*dynacut.Binary{app.Libc}, app.Config.Port)
	if err != nil {
		b.Fatal(err)
	}
	blocks, err := sess.ProfileFeatures(
		[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n"},
		[]string{"PUT /f data\n", "DELETE /f\n"},
	)
	if err != nil {
		b.Fatal(err)
	}
	errAddr, err := sess.SymbolAddr("resp_403")
	if err != nil {
		b.Fatal(err)
	}
	health := dynacut.HealthProbe(app.Config.Port, "GET /\n", "200")

	for _, replicas := range []int{256, 1024} {
		b.Run(fmt.Sprintf("replicas=%d/pooled", replicas), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f, err := dynacut.NewFleetFromSession(sess, dynacut.FleetConfig{
					Replicas: replicas,
					Workers:  8,
					WaveSize: replicas, // one canary, then everything in one wave
					Core: dynacut.CustomizerOptions{
						RedirectTo:  errAddr,
						HealthCheck: health,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				c := dynacut.NewRolloutController(f, nil)
				res, err := c.Run(func(r *dynacut.FleetReplica) (dynacut.RewriteStats, error) {
					return r.Cust.DisableBlocks("webdav-write", blocks, dynacut.PolicyBlockEntry)
				})
				if err != nil {
					b.Fatal(err)
				}
				if got := res.Committed(); got != replicas {
					b.Fatalf("committed %d/%d", got, replicas)
				}
				if i == 0 {
					j := c.Journal()
					b.ReportMetric(float64(res.SerialTicks), "serial-vticks")
					b.ReportMetric(float64(res.FleetTicks), "fleet-vticks")
					b.ReportMetric(float64(res.SerialTicks)/float64(res.FleetTicks), "vtick-speedup")
					b.ReportMetric(float64(len(j.Records())), "journal-records")
					b.ReportMetric(float64(len(j.Bytes())), "journal-bytes")
				}
			}
		})
	}
}

// BenchmarkRewriteUnderLoad measures what a staged rollout costs the
// traffic it interrupts: a 4-replica fleet serves open-loop
// constant-rate load while the rollout disables webdav-write on every
// replica, against a steady-state baseline of the same fleet shape
// and schedule. The rollout's charged downtime (wall-clock rewrite
// cost converted to vticks and capped at three buckets) must surface
// as dropped requests and a per-replica service gap that matches the
// journal's intent/outcome vclock stamps.
func BenchmarkRewriteUnderLoad(b *testing.B) {
	app, err := dynacut.BuildWebServer(dynacut.WebServerConfig{Name: "lighttpd", Port: 8080})
	if err != nil {
		b.Fatal(err)
	}
	sess, err := dynacut.StartServer(app.Exe, []*dynacut.Binary{app.Libc}, app.Config.Port)
	if err != nil {
		b.Fatal(err)
	}
	blocks, err := sess.ProfileFeatures(
		[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n"},
		[]string{"PUT /f data\n", "DELETE /f\n"},
	)
	if err != nil {
		b.Fatal(err)
	}
	errAddr, err := sess.SymbolAddr("resp_403")
	if err != nil {
		b.Fatal(err)
	}

	const (
		replicas = 4
		bucket   = 100_000
		horizon  = 1_200_000
	)
	fcfg := dynacut.FleetConfig{
		Replicas:     replicas,
		Workers:      2,
		CanaryShards: 1,
		WaveSize:     replicas,
		Core: dynacut.CustomizerOptions{
			RedirectTo:     errAddr,
			TicksPerSecond: 2_300_000_000, // one rewrite models ~3 buckets
		},
	}
	cfg := dynacut.SLOConfig{
		Port:        app.Config.Port,
		Schedule:    dynacut.NewConstantSchedule(10_000),
		Mix:         dynacut.NewLoadMix(dynacut.LoadRequest{Payload: "GET /\n"}),
		Horizon:     horizon,
		BucketTicks: bucket,
		PollTicks:   5_000,
	}
	apply := func(r *dynacut.FleetReplica) (dynacut.RewriteStats, error) {
		return r.Cust.DisableBlocks("webdav-write", blocks, dynacut.PolicyBlockEntry)
	}

	// Live-patch column: same fleet shape, load and feature, but the
	// template carries the SIGTRAP handler pre-installed (one rewrite,
	// paid once, before cloning) so every replica qualifies for the
	// zero-downtime fast path.
	liveM := sess.Machine.Clone()
	liveCust, err := dynacut.NewCustomizer(liveM, sess.PID(), dynacut.CustomizerOptions{RedirectTo: errAddr})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := liveCust.InstallHandler(); err != nil {
		b.Fatal(err)
	}
	applyLive := func(r *dynacut.FleetReplica) (dynacut.RewriteStats, error) {
		return r.Cust.DisableBlocksLive("webdav-write", blocks, dynacut.PolicyBlockEntry)
	}

	for i := 0; i < b.N; i++ {
		base, err := dynacut.NewFleetFromSession(sess, fcfg)
		if err != nil {
			b.Fatal(err)
		}
		steady, err := dynacut.SteadyStateLoad(base, cfg)
		if err != nil {
			b.Fatal(err)
		}
		rep, _, err := dynacut.RolloutUnderLoad(sess.Machine, sess.PID(), fcfg, cfg, apply)
		if err != nil {
			b.Fatal(err)
		}
		if got := rep.Rollout.Committed(); got != replicas {
			b.Fatalf("committed %d/%d", got, replicas)
		}
		repLive, _, err := dynacut.RolloutUnderLoad(liveM, liveCust.PID(), fcfg, cfg, applyLive)
		if err != nil {
			b.Fatal(err)
		}
		if got := repLive.Rollout.Committed(); got != replicas {
			b.Fatalf("live-patch committed %d/%d", got, replicas)
		}
		for _, o := range repLive.Rollout.Outcomes {
			if !o.Stats.LivePatched {
				b.Fatalf("replica %d did not take the live-patch fast path (fellBack=%v reason=%q)",
					o.Index, o.Stats.FellBack, o.Stats.FallbackReason)
			}
		}
		if i == 0 {
			var journal, observed, liveJournal, liveObserved float64
			for _, s := range rep.JournalSpans {
				journal += float64(s.Ticks())
			}
			for _, s := range rep.ObservedSpans {
				observed += float64(s.Ticks())
			}
			for _, s := range repLive.JournalSpans {
				liveJournal += float64(s.Ticks())
			}
			for _, s := range repLive.ObservedSpans {
				liveObserved += float64(s.Ticks())
			}
			printOnce(b, i, "Rewrite under load: SLO vs steady state", fmt.Sprintf(
				"steady    : p50 %6d  p99 %6d  p999 %6d vticks  served %d/%d  dropped %d\nrollout   : p50 %6d  p99 %6d  p999 %6d vticks  served %d/%d  dropped %d\nlive-patch: p50 %6d  p99 %6d  p999 %6d vticks  served %d/%d  dropped %d\nmean downtime per replica: transaction journal %.0f / observed %.0f vticks, live-patch journal %.0f / observed %.0f vticks\n",
				steady.P50, steady.P99, steady.P999, steady.Served, steady.Total, steady.Dropped,
				rep.P50, rep.P99, rep.P999, rep.Served, rep.Total, rep.Dropped,
				repLive.P50, repLive.P99, repLive.P999, repLive.Served, repLive.Total, repLive.Dropped,
				journal/replicas, observed/replicas, liveJournal/replicas, liveObserved/replicas))
			b.ReportMetric(float64(steady.P99), "steady-p99-vticks")
			b.ReportMetric(float64(rep.P99), "rollout-p99-vticks")
			b.ReportMetric(steady.ServedPerVtick*1e3, "steady-served-per-kvtick")
			b.ReportMetric(rep.ServedPerVtick*1e3, "rollout-served-per-kvtick")
			b.ReportMetric(float64(rep.Dropped), "rollout-dropped-reqs")
			b.ReportMetric(journal/replicas, "journal-downtime-vticks")
			b.ReportMetric(observed/replicas, "observed-downtime-vticks")
			b.ReportMetric(float64(repLive.P99), "livepatch-p99-vticks")
			b.ReportMetric(float64(repLive.Dropped), "livepatch-dropped-reqs")
			b.ReportMetric(liveJournal/replicas, "livepatch-journal-downtime-vticks")
			b.ReportMetric(liveObserved/replicas, "livepatch-observed-downtime-vticks")
		}
	}
}
