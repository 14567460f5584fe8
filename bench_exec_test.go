// Execution-engine benchmark: interpreter vs the basic-block
// translation cache on the Figure 6/7 workloads (a lighttpd-shaped
// web server serving requests and a SPEC-shaped CPU-bound guest), at
// 1/4/16 replicas. Each sub-benchmark runs the identical workload
// through both engines and reports guest throughput — virtual-clock
// ticks retired per wall second — for each, plus the speedup ratio.
// `make bench` records the numbers in BENCH_pr10.json; the headline
// acceptance bar is speedup ≥ 5× on the CPU-bound guests.
//
// Virtual time is engine-invariant by construction (the translator
// charges the clock instruction-for-instruction like the
// interpreter), so the two engines retire the *same* vtick count and
// the ratio below is a pure wall-clock measurement of decode reuse.
package dynacut_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/dynacut/dynacut"
	"github.com/dynacut/dynacut/internal/apps/specgen"
	"github.com/dynacut/dynacut/internal/apps/webserv"
	"github.com/dynacut/dynacut/internal/crit"
	"github.com/dynacut/dynacut/internal/criu"
	"github.com/dynacut/dynacut/internal/kernel"
)

// reportEngines runs the workload under both engines and reports
// throughput and speedup. workload returns retired vticks and the
// wall time they took, excluding any build/load setup.
func reportEngines(b *testing.B, workload func(b *testing.B, mode kernel.ExecMode) (uint64, time.Duration)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		iTicks, iWall := workload(b, kernel.ModeInterpret)
		tTicks, tWall := workload(b, kernel.ModeTranslate)
		if iTicks != tTicks {
			b.Fatalf("engines disagree on virtual time: interpret %d vticks, translate %d", iTicks, tTicks)
		}
		if i == 0 {
			iRate := float64(iTicks) / iWall.Seconds() / 1e6
			tRate := float64(tTicks) / tWall.Seconds() / 1e6
			b.ReportMetric(float64(iTicks), "guest-vticks")
			b.ReportMetric(iRate, "interp-Minst/s")
			b.ReportMetric(tRate, "translate-Minst/s")
			b.ReportMetric(tRate/iRate, "speedup")
		}
	}
}

// BenchmarkExecEngineSpec: the Figure 7 CPU-bound guests run to
// completion on N independent machines. Pure straight-line and loop
// execution — the translation cache's best case and the acceptance
// headline.
func BenchmarkExecEngineSpec(b *testing.B) {
	for _, name := range []string{"605.mcf_s", "631.deepsjeng_s"} {
		prof, ok := specgen.ProfileByName(name)
		if !ok {
			b.Fatalf("no profile %s", name)
		}
		app, err := specgen.Build(prof)
		if err != nil {
			b.Fatal(err)
		}
		for _, replicas := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/replicas=%d", name, replicas), func(b *testing.B) {
				reportEngines(b, func(b *testing.B, mode kernel.ExecMode) (uint64, time.Duration) {
					machines := make([]*kernel.Machine, replicas)
					procs := make([]*kernel.Process, replicas)
					for i := range machines {
						m := kernel.NewMachine()
						m.SetExecMode(mode)
						p, err := m.Load(app.Exe, app.Libc)
						if err != nil {
							b.Fatal(err)
						}
						machines[i], procs[i] = m, p
					}
					start := time.Now()
					var ticks uint64
					for i, m := range machines {
						for !procs[i].Exited() {
							if m.Run(1_000_000) == 0 {
								b.Fatalf("%s wedged under %v", name, mode)
							}
						}
						ticks += m.Clock()
					}
					return ticks, time.Since(start)
				})
			})
		}
	}
}

// BenchmarkExecEngineWebserv: the Figure 6 workload — boot lighttpd
// and serve a batch of requests on N independent machines. Syscall-
// and trap-heavy, so blocks are short and the engines converge; this
// row bounds the realistic fleet-wide gain.
func BenchmarkExecEngineWebserv(b *testing.B) {
	app, err := webserv.Build(webserv.Config{Name: "lighttpd", Port: 8080})
	if err != nil {
		b.Fatal(err)
	}
	reqs := []string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "PUT /f data\n", "DELETE /f\n"}
	for _, replicas := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("lighttpd/replicas=%d", replicas), func(b *testing.B) {
			reportEngines(b, func(b *testing.B, mode kernel.ExecMode) (uint64, time.Duration) {
				start := time.Now()
				var ticks uint64
				for i := 0; i < replicas; i++ {
					m := kernel.NewMachine()
					m.SetExecMode(mode)
					if _, err := m.Load(app.Exe, app.Libc); err != nil {
						b.Fatal(err)
					}
					booted := false
					m.SetNudgeFunc(func(pid int, arg uint64) { booted = true })
					if !m.RunUntil(func() bool { return booted }, 50_000_000) {
						b.Fatal("boot: nudge never fired")
					}
					m.Run(10_000)
					for round := 0; round < 8; round++ {
						for _, r := range reqs {
							conn, err := m.Dial(app.Config.Port)
							if err != nil {
								b.Fatal(err)
							}
							if _, err := conn.Write([]byte(r)); err != nil {
								b.Fatal(err)
							}
							m.RunUntil(func() bool { return len(conn.ReadAllPeek()) > 0 || conn.Closed() }, 2_000_000)
							m.Run(10_000)
							if got := string(conn.ReadAll()); got == "" || !strings.Contains(got, " ") {
								b.Fatalf("bad response under %v: %q", mode, got)
							}
						}
					}
					ticks += m.Clock()
				}
				return ticks, time.Since(start)
			})
		})
	}
}

// BenchmarkExecEngineKVRequest: one warm kvstore request through
// Session.Request on the default engine, with the coverage tracer
// attached — the kv-cut workload's request path. Besides ns/op and
// allocs/op it reports guest throughput: virtual-clock ticks retired
// per wall second.
func BenchmarkExecEngineKVRequest(b *testing.B) {
	app, err := dynacut.BuildKVStore(dynacut.KVStoreConfig{})
	if err != nil {
		b.Fatal(err)
	}
	sess, err := dynacut.StartServer(app.Exe, []*dynacut.Binary{app.Libc}, app.Config.Port)
	if err != nil {
		b.Fatal(err)
	}
	reqs := []string{"SET a 17\n", "GET a\n", "INCR a\n", "EXISTS a\n", "SET b hello\n", "GET b\n", "DEL b\n", "PING\n"}
	for _, r := range reqs {
		if _, err := sess.Request(r); err != nil {
			b.Fatalf("warm-up %q: %v", r, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	clock := sess.Machine.Clock()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Request(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sess.Machine.Clock()-clock)/b.Elapsed().Seconds()/1e6, "guest-Minst/s")
}

// BenchmarkBlockCacheSuccessionKV: one translation-cache handoff of the
// kvstore guest, shaped like a kv-cut rewrite. Before each handoff the
// guest serves wanted requests (and, while STRALGO is intact, a STRALGO
// probe), is dumped, and its images get an INT3 at every STRALGO block
// entry or the original bytes back, alternately; then it is killed and
// restored. handoff-ns/op times Process.Succeed alone; ns/op is the
// whole cycle.
func BenchmarkBlockCacheSuccessionKV(b *testing.B) {
	app, err := dynacut.BuildKVStore(dynacut.KVStoreConfig{})
	if err != nil {
		b.Fatal(err)
	}
	sess, err := dynacut.StartServer(app.Exe, []*dynacut.Binary{app.Libc}, app.Config.Port)
	if err != nil {
		b.Fatal(err)
	}
	wanted := []string{"PING\n", "GET a\n", "SET a v\n", "EXISTS a\n", "INCR a\n", "DEL a\n", "WHAT\n"}
	blocks, err := sess.ProfileFeatures(wanted, []string{"STRALGO LCS ab\n"})
	if err != nil {
		b.Fatal(err)
	}
	m, pid := sess.Machine, sess.PID()
	pred, err := m.Process(pid)
	if err != nil {
		b.Fatal(err)
	}
	orig := make([]byte, len(blocks))
	for i, bl := range blocks {
		v, err := pred.Mem().Read(bl.Addr, 1)
		if err != nil {
			b.Fatal(err)
		}
		orig[i] = v[0]
	}
	kept := 0
	var took time.Duration
	for i := 0; i < b.N; i++ {
		cut := i%2 == 0
		reqs := []string{"SET a v\n", "GET a\n"}
		if cut {
			reqs = append(reqs, "STRALGO LCS ab\n")
		}
		for _, r := range reqs {
			if _, err := sess.Request(r); err != nil {
				b.Fatalf("%q: %v", r, err)
			}
		}
		set, err := criu.Dump(m, pid, criu.DumpOpts{ExecPages: true})
		if err != nil {
			b.Fatal(err)
		}
		ed := crit.NewEditor(set, m)
		for j, bl := range blocks {
			v := orig[j]
			if cut {
				v = 0xCC
			}
			if err := ed.WriteMem(pid, bl.Addr, []byte{v}); err != nil {
				b.Fatal(err)
			}
		}
		m.Kill(pid)
		procs, _, err := criu.Restore(m, set)
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		kept += procs[0].Succeed(pred)
		took += time.Since(t0)
		m.Remove(pid)
		pred, pid = procs[0], procs[0].PID()
	}
	b.ReportMetric(float64(took.Nanoseconds())/float64(b.N), "handoff-ns/op")
	b.ReportMetric(float64(kept)/float64(b.N), "blocks-kept/op")
}
