package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"github.com/dynacut/dynacut"
	"github.com/dynacut/dynacut/internal/loadgen"
)

// ---------------------------------------------------------------------------
// Figure 2 — basic-block liveness maps (605.mcf_s and Lighttpd)

// Liveness categorizes a program's static blocks by observed use.
type Liveness struct {
	Program        string
	TotalBlocks    int
	ExecutedBlocks int // blue+red in the paper's figure
	InitOnlyBlocks int // red
	UnusedBlocks   int // gray
	// Map is an ASCII rendering: one character per static block in
	// address order ('#' hot, 'i' init-only, '.' never executed).
	Map string
}

// Figure2 profiles the mcf-like benchmark and the Lighttpd-like
// server and categorizes their basic blocks.
func Figure2() ([]Liveness, error) {
	var out []Liveness

	mcf, err := livenessSpec("605.mcf_s")
	if err != nil {
		return nil, err
	}
	out = append(out, *mcf)

	httpd, err := livenessWeb()
	if err != nil {
		return nil, err
	}
	out = append(out, *httpd)
	return out, nil
}

func livenessSpec(name string) (*Liveness, error) {
	prof, ok := profileByName(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown profile %q", name)
	}
	app, err := dynacut.BuildSpec(prof)
	if err != nil {
		return nil, err
	}
	m := dynacut.NewMachine()
	col := newCollector(app.Exe.Name, m)
	p, err := m.Load(app.Exe, app.Libc)
	if err != nil {
		return nil, err
	}
	var initG, fullG *dynacut.Graph
	m.SetNudgeFunc(func(pid int, arg uint64) {
		if initG == nil {
			initG = dynacut.GraphFromLog(col.Snapshot(p.Modules(), "init"))
		}
	})
	m.Run(200_000_000)
	if !p.Exited() {
		return nil, fmt.Errorf("experiments: %s did not finish", name)
	}
	fullG = dynacut.GraphFromLog(col.Snapshot(p.Modules(), "full"))
	if initG == nil {
		initG = fullG
	}
	servingG := dynacut.DiffGraphs(fullG, initG) // executed after init... approximation below refines
	return liveness(app.Exe, initG, servingG, fullG)
}

func livenessWeb() (*Liveness, error) {
	sess, app, err := webSession(dynacut.WebServerConfig{Name: "lighttpd", Port: 8080})
	if err != nil {
		return nil, err
	}
	serving, err := serveAndSnapshot(sess, append(append([]string{}, WantedWeb...), UndesiredWeb...))
	if err != nil {
		return nil, err
	}
	initG := sess.InitGraph()
	full := dynacut.MergeGraphs(initG, serving)
	return liveness(app.Exe, initG, serving, full)
}

func liveness(exe *dynacut.Binary, initG, servingG, fullG *dynacut.Graph) (*Liveness, error) {
	cfg := dynacut.AnalyzeCFG(exe)
	initOnly := dynacut.IdentifyInitBlocks(initG, servingG, exe.Name)
	initSet := map[uint64]bool{}
	for _, b := range initOnly {
		initSet[b.Addr] = true
	}
	unused := dynacut.IdentifyUnexecutedBlocks(cfg, fullG, exe.Name)
	unusedSet := map[uint64]bool{}
	for _, b := range unused {
		unusedSet[b.Addr] = true
	}
	lv := &Liveness{Program: exe.Name, TotalBlocks: cfg.Count()}
	var mapB strings.Builder
	for i, blk := range cfg.Sorted() {
		switch {
		case unusedSet[blk.Addr]:
			lv.UnusedBlocks++
			mapB.WriteByte('.')
		case initSet[blk.Addr]:
			lv.InitOnlyBlocks++
			lv.ExecutedBlocks++
			mapB.WriteByte('i')
		default:
			lv.ExecutedBlocks++
			mapB.WriteByte('#')
		}
		if (i+1)%64 == 0 {
			mapB.WriteByte('\n')
		}
	}
	lv.Map = mapB.String()
	return lv, nil
}

// ---------------------------------------------------------------------------
// Figure 6 — feature-removal overhead breakdown

// F6Row is one bar of Figure 6.
type F6Row struct {
	App           string
	Processes     int
	ImageBytes    int
	InsertHandler time.Duration
	DisableInt3   time.Duration
	Checkpoint    time.Duration
	Restore       time.Duration
}

// Total is the full service-interruption window.
func (r F6Row) Total() time.Duration {
	return r.InsertHandler + r.DisableInt3 + r.Checkpoint + r.Restore
}

// Figure6 disables the WebDAV write methods on Lighttpd- and
// Nginx-style servers and the SET command on the Redis-like store,
// reporting the per-stage rewrite cost.
func Figure6() ([]F6Row, error) {
	var rows []F6Row

	web := []struct {
		name    string
		workers int
	}{
		{"lighttpd", 0},
		{"nginx", 1},
	}
	for _, wcfg := range web {
		sess, app, err := webSession(dynacut.WebServerConfig{Name: wcfg.name, Port: 8080, Workers: wcfg.workers})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wcfg.name, err)
		}
		blocks, err := sess.ProfileFeatures(WantedWeb, UndesiredWeb)
		if err != nil {
			return nil, fmt.Errorf("%s profile: %w", wcfg.name, err)
		}
		errAddr, err := sess.SymbolAddr("resp_403")
		if err != nil {
			return nil, err
		}
		cust, err := dynacut.NewCustomizer(sess.Machine, sess.PID(), dynacut.CustomizerOptions{
			Tree:       wcfg.workers > 0,
			RedirectTo: errAddr,
		})
		if err != nil {
			return nil, err
		}
		stats, err := cust.DisableBlocks("webdav-write", blocks, dynacut.PolicyBlockEntry)
		if err != nil {
			return nil, fmt.Errorf("%s disable: %w", wcfg.name, err)
		}
		rows = append(rows, F6Row{
			App:           app.Config.Name,
			Processes:     wcfg.workers + 1,
			ImageBytes:    stats.ImageBytes,
			InsertHandler: stats.InsertHandler,
			DisableInt3:   stats.CodeUpdate,
			Checkpoint:    stats.Checkpoint,
			Restore:       stats.Restore,
		})
	}

	// Redis-like: disable SET.
	sess, app, err := kvSession(dynacut.KVStoreConfig{})
	if err != nil {
		return nil, err
	}
	blocks, err := sess.ProfileFeatures(WantedKV, UndesiredKV)
	if err != nil {
		return nil, err
	}
	errAddr, err := sess.SymbolAddr("resp_err")
	if err != nil {
		return nil, err
	}
	cust, err := dynacut.NewCustomizer(sess.Machine, sess.PID(), dynacut.CustomizerOptions{RedirectTo: errAddr})
	if err != nil {
		return nil, err
	}
	stats, err := cust.DisableBlocks("set", blocks, dynacut.PolicyBlockEntry)
	if err != nil {
		return nil, err
	}
	rows = append(rows, F6Row{
		App:           app.Config.Name,
		Processes:     1,
		ImageBytes:    stats.ImageBytes,
		InsertHandler: stats.InsertHandler,
		DisableInt3:   stats.CodeUpdate,
		Checkpoint:    stats.Checkpoint,
		Restore:       stats.Restore,
	})
	return rows, nil
}

// F6Stats aggregates repeated Figure 6 runs: the paper reports the
// mean of 10 repetitions with a 17 ms standard deviation.
type F6Stats struct {
	App       string
	Reps      int
	MeanTotal time.Duration
	StdDev    time.Duration
}

// Figure6Repeated runs the feature-removal measurement reps times and
// reports mean and standard deviation per app.
func Figure6Repeated(reps int) ([]F6Stats, error) {
	if reps < 2 {
		return nil, fmt.Errorf("experiments: need >= 2 reps, got %d", reps)
	}
	samples := map[string][]float64{}
	order := []string{}
	for i := 0; i < reps; i++ {
		rows, err := Figure6()
		if err != nil {
			return nil, fmt.Errorf("rep %d: %w", i, err)
		}
		for _, r := range rows {
			if _, seen := samples[r.App]; !seen {
				order = append(order, r.App)
			}
			samples[r.App] = append(samples[r.App], float64(r.Total()))
		}
	}
	var out []F6Stats
	for _, app := range order {
		vs := samples[app]
		var sum float64
		for _, v := range vs {
			sum += v
		}
		mean := sum / float64(len(vs))
		var varSum float64
		for _, v := range vs {
			varSum += (v - mean) * (v - mean)
		}
		std := math.Sqrt(varSum / float64(len(vs)-1))
		out = append(out, F6Stats{
			App:       app,
			Reps:      len(vs),
			MeanTotal: time.Duration(mean),
			StdDev:    time.Duration(std),
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 7 — initialization-code removal cost

// F7Row is one bar of Figure 7.
type F7Row struct {
	App               string
	CodeSize          uint64
	ImageBytes        int
	InitBlocks        int
	CheckpointRestore time.Duration
	CodeUpdate        time.Duration
}

// Figure7 removes initialization-only code from the two web servers
// and, when includeSpec is set, from every SPEC-like profile.
func Figure7(includeSpec bool) ([]F7Row, error) {
	var rows []F7Row

	for _, wcfg := range []struct {
		name    string
		workers int
	}{{"lighttpd", 0}, {"nginx", 1}} {
		sess, app, err := webSession(dynacut.WebServerConfig{
			Name: wcfg.name, Port: 8080, Workers: wcfg.workers, InitRoutines: 24,
		})
		if err != nil {
			return nil, err
		}
		serving, err := serveAndSnapshot(sess, append(append([]string{}, WantedWeb...), UndesiredWeb...))
		if err != nil {
			return nil, err
		}
		blocks := dynacut.IdentifyInitBlocks(sess.InitGraph(), serving, app.Config.Name)
		cust, err := dynacut.NewCustomizer(sess.Machine, sess.PID(), dynacut.CustomizerOptions{Tree: wcfg.workers > 0})
		if err != nil {
			return nil, err
		}
		stats, err := cust.DisableBlocks("init", blocks, dynacut.PolicyWipeBlocks)
		if err != nil {
			return nil, fmt.Errorf("%s init removal: %w", wcfg.name, err)
		}
		rows = append(rows, F7Row{
			App:               app.Config.Name,
			CodeSize:          app.Exe.TextSize(),
			ImageBytes:        stats.ImageBytes,
			InitBlocks:        stats.BlocksPatched,
			CheckpointRestore: stats.Checkpoint + stats.Restore,
			CodeUpdate:        stats.CodeUpdate,
		})
	}
	if !includeSpec {
		return rows, nil
	}
	for _, prof := range dynacut.SpecProfiles() {
		row, err := figure7Spec(prof)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", prof.Name, err)
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

// specPhase runs a SPEC-like guest to its nudge and returns the
// machine, process and phase coverage graphs (init, serving-so-far).
func specPhase(prof dynacut.SpecProfile) (*dynacut.Machine, *dynacut.SpecApp, *dynacut.Process, *dynacut.Graph, *dynacut.Graph, error) {
	app, err := dynacut.BuildSpec(prof)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	m := dynacut.NewMachine()
	col := newCollector(app.Exe.Name, m)
	p, err := m.Load(app.Exe, app.Libc)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	var initG *dynacut.Graph
	m.SetNudgeFunc(func(pid int, arg uint64) {
		if initG == nil {
			initG = dynacut.GraphFromLog(col.SnapshotAndReset(p.Modules(), "init"))
		}
	})
	if !m.RunUntil(func() bool { return initG != nil }, 500_000_000) {
		return nil, nil, nil, nil, nil, fmt.Errorf("experiments: %s never nudged", prof.Name)
	}
	// Let roughly two serving passes run so every serving-phase
	// function is covered while the guest is still far from exiting.
	passCost := uint64(prof.ExecFuncs-prof.InitFuncs)*20 + 1000
	m.Run(2 * passCost)
	servingG := dynacut.GraphFromLog(col.Snapshot(p.Modules(), "serving"))
	return m, app, p, initG, servingG, nil
}

func figure7Spec(prof dynacut.SpecProfile) (*F7Row, error) {
	m, app, p, initG, servingG, err := specPhase(prof)
	if err != nil {
		return nil, err
	}
	blocks := dynacut.IdentifyInitBlocks(initG, servingG, app.Exe.Name)
	if len(blocks) == 0 {
		return nil, fmt.Errorf("experiments: %s has no init blocks", prof.Name)
	}
	cust, err := dynacut.NewCustomizer(m, p.PID(), dynacut.CustomizerOptions{})
	if err != nil {
		return nil, err
	}
	stats, err := cust.DisableBlocks("init", blocks, dynacut.PolicyWipeBlocks)
	if err != nil {
		return nil, err
	}
	return &F7Row{
		App:               prof.Name,
		CodeSize:          app.Exe.TextSize(),
		ImageBytes:        stats.ImageBytes,
		InitBlocks:        stats.BlocksPatched,
		CheckpointRestore: stats.Checkpoint + stats.Restore,
		CodeUpdate:        stats.CodeUpdate,
	}, nil
}

// ---------------------------------------------------------------------------
// Figure 8 — service interruption timeline

// F8Point is one throughput sample.
type F8Point struct {
	Bucket     int
	Throughput float64 // responses per wall-clock bucket
}

// F8Result is the Figure 8 timeline.
type F8Result struct {
	WithDynaCut []F8Point
	Baseline    []F8Point
	DisableAt   int
	EnableAt    int
	// ServerSurvived records that the customized server kept running
	// through both rewrites.
	ServerSurvived bool
	// Mean request latency (guest instructions) with and without the
	// rewrites: the paper's "no observable overall performance
	// overhead" claim — once restored, requests cost the same.
	MeanLatencyWith     float64
	MeanLatencyBaseline float64
	// P99 latency for both series.
	P99LatencyWith     uint64
	P99LatencyBaseline uint64
}

// The timeline runs on the machine's virtual clock: 70 buckets of
// figure8BucketTicks instructions each, with the SET command disabled
// at bucket 20 and re-enabled at bucket 48 (the paper's 70-second
// trace). Each rewrite's modelled service interruption is charged to
// the virtual clock via TicksPerSecond, so the interruption window
// appears in the timeline at its relative size and every run yields
// the same timeline.
const (
	figure8Buckets     = 70
	figure8BucketTicks = 100_000
	// figure8TickRate charges one tick per modelled nanosecond: a
	// kvstore rewrite models 133–153 µs (one process, 10–14 pages), so
	// it spans 1–2 buckets, like the paper's sub-second dip in a 70 s
	// window.
	figure8TickRate = 1_000_000_000
)

// Figure8 drives a GET workload against the Redis-like store while
// DynaCut disables and later re-enables the SET command, sampling
// throughput per virtual-time bucket. The baseline series repeats the
// run without any rewriting.
func Figure8() (*F8Result, error) {
	withCut, withRes, survived, err := figure8Run(true)
	if err != nil {
		return nil, err
	}
	baseline, baseRes, _, err := figure8Run(false)
	if err != nil {
		return nil, err
	}
	return &F8Result{
		WithDynaCut:         withCut,
		Baseline:            baseline,
		DisableAt:           20,
		EnableAt:            48,
		ServerSurvived:      survived,
		MeanLatencyWith:     withRes.Latency.Mean(),
		MeanLatencyBaseline: baseRes.Latency.Mean(),
		P99LatencyWith:      withRes.Latency.Percentile(99),
		P99LatencyBaseline:  baseRes.Latency.Percentile(99),
	}, nil
}

func figure8Run(rewrite bool) ([]F8Point, *loadgen.Result, bool, error) {
	sess, app, err := kvSession(dynacut.KVStoreConfig{})
	if err != nil {
		return nil, nil, false, err
	}
	// Profile SET's unique blocks first.
	blocks, err := sess.ProfileFeatures(WantedKV, UndesiredKV)
	if err != nil {
		return nil, nil, false, err
	}
	errAddr, err := sess.SymbolAddr("resp_err")
	if err != nil {
		return nil, nil, false, err
	}
	cust, err := dynacut.NewCustomizer(sess.Machine, sess.PID(), dynacut.CustomizerOptions{
		RedirectTo:     errAddr,
		TicksPerSecond: figure8TickRate,
	})
	if err != nil {
		return nil, nil, false, err
	}
	// Stop tracing: the measurement loop should run at full speed.
	sess.Machine.SetTracer(nil)

	// The redis-benchmark analogue: a GET-only mix with a hook that
	// performs the rewrites at the paper's timeline points. A rewrite
	// charges virtual time, so the following bucket(s) show zero
	// throughput — the service-interruption window.
	driver := &loadgen.Driver{
		Machine:     sess.Machine,
		Port:        app.Config.Port,
		Mix:         loadgen.NewMix(loadgen.Request{Payload: "GET a\n"}),
		BucketTicks: figure8BucketTicks,
		Hook: func(bucket int) error {
			if !rewrite {
				return nil
			}
			switch bucket {
			case 20:
				_, err := cust.DisableBlocks("set", blocks, dynacut.PolicyBlockEntry)
				return err
			case 48:
				_, err := cust.EnableBlocks("set")
				return err
			}
			return nil
		},
	}
	res, err := driver.Run(figure8Buckets)
	if err != nil {
		return nil, nil, false, err
	}
	points := make([]F8Point, 0, len(res.Buckets))
	for _, b := range res.Buckets {
		points = append(points, F8Point{Bucket: b.Index, Throughput: float64(b.Responses)})
	}
	alive := len(sess.Machine.Processes()) > 0
	return points, res, alive, nil
}

// ---------------------------------------------------------------------------
// Figure 9 — executed vs removed basic blocks

// F9Row is one group of Figure 9 plus its table row.
type F9Row struct {
	App             string
	TotalBB         int
	ExecutedBB      int
	RemovedBB       int
	CodeSize        uint64
	InitCodeRemoved uint64
	RemovedPct      float64 // removed / executed
}

// Figure9 measures, for the web servers and the SPEC-like suite, how
// many executed blocks are initialization-only and removable.
func Figure9(includeSpec bool) ([]F9Row, error) {
	var rows []F9Row
	for _, wcfg := range []struct {
		name    string
		workers int
	}{{"lighttpd", 0}, {"nginx", 1}} {
		sess, app, err := webSession(dynacut.WebServerConfig{
			Name: wcfg.name, Port: 8080, Workers: wcfg.workers, InitRoutines: 24,
		})
		if err != nil {
			return nil, err
		}
		serving, err := serveAndSnapshot(sess, append(append([]string{}, WantedWeb...), UndesiredWeb...))
		if err != nil {
			return nil, err
		}
		initG := sess.InitGraph()
		rows = append(rows, figure9Row(app.Exe, initG, serving))
	}
	if !includeSpec {
		return rows, nil
	}
	for _, prof := range dynacut.SpecProfiles() {
		_, app, _, initG, servingG, err := specPhase(prof)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", prof.Name, err)
		}
		rows = append(rows, figure9Row(app.Exe, initG, servingG))
	}
	return rows, nil
}

func figure9Row(exe *dynacut.Binary, initG, servingG *dynacut.Graph) F9Row {
	cfg := dynacut.AnalyzeCFG(exe)
	removed := dynacut.IdentifyInitBlocks(initG, servingG, exe.Name)
	full := dynacut.MergeGraphs(initG, servingG)
	executed := 0
	for _, b := range full.Blocks() {
		if b.Module == exe.Name {
			executed++
		}
	}
	row := F9Row{
		App:             exe.Name,
		TotalBB:         cfg.Count(),
		ExecutedBB:      executed,
		RemovedBB:       len(removed),
		CodeSize:        exe.TextSize(),
		InitCodeRemoved: blocksBytes(removed),
	}
	if executed > 0 {
		row.RemovedPct = float64(len(removed)) / float64(executed)
	}
	return row
}

// ---------------------------------------------------------------------------
// Figure 10 — live basic blocks over time

// F10Phase is one step of the Figure 10 timeline.
type F10Phase struct {
	Time  int
	Label string
	// LivePct is the fraction of the binary's static blocks still
	// reachable under DynaCut.
	LivePct float64
}

// F10Result compares DynaCut's per-phase live fraction against the
// constant fractions of the static baselines.
type F10Result struct {
	Phases    []F10Phase
	RazorPct  float64
	ChiselPct float64
	MaxPct    float64 // DynaCut's worst (highest) post-deploy point
}

// Figure10 walks the Lighttpd lifecycle: deploy (never-executed code
// removed), post-init (init-only code removed), a PUT/DELETE
// re-enable window, and back.
func Figure10() (*F10Result, error) {
	// ExtraFeatures models the untraced feature bloat of a real
	// server: without it nearly every block executes during
	// profiling and the static baselines look artificially good.
	sess, app, err := webSession(dynacut.WebServerConfig{
		Name: "lighttpd", Port: 8080, InitRoutines: 24, ExtraFeatures: 24,
	})
	if err != nil {
		return nil, err
	}
	// Full profiling pass: wanted + undesired + init.
	serving, err := serveAndSnapshot(sess, append(append([]string{}, WantedWeb...), UndesiredWeb...))
	if err != nil {
		return nil, err
	}
	initG := sess.InitGraph()
	full := dynacut.MergeGraphs(initG, serving)
	cfg := dynacut.AnalyzeCFG(app.Exe)
	total := float64(cfg.Count())

	razor, err := dynacut.RazorDebloat(app.Exe, full)
	if err != nil {
		return nil, err
	}
	chisel, err := dynacut.ChiselDebloat(app.Exe, full)
	if err != nil {
		return nil, err
	}

	unexec := dynacut.IdentifyUnexecutedBlocks(cfg, full, app.Exe.Name)
	initOnly := dynacut.IdentifyInitBlocks(initG, serving, app.Exe.Name)
	putBlocks, err := sess.ProfileFeatures(WantedWeb, UndesiredWeb)
	if err != nil {
		return nil, err
	}

	errAddr, err := sess.SymbolAddr("resp_403")
	if err != nil {
		return nil, err
	}
	cust, err := dynacut.NewCustomizer(sess.Machine, sess.PID(), dynacut.CustomizerOptions{RedirectTo: errAddr})
	if err != nil {
		return nil, err
	}

	res := &F10Result{
		RazorPct:  razor.LiveFraction(),
		ChiselPct: chisel.LiveFraction(),
	}
	live := func() float64 {
		return (total - float64(cust.DisabledBlockCount())) / total
	}
	record := func(tm int, label string) {
		res.Phases = append(res.Phases, F10Phase{Time: tm, Label: label, LivePct: live()})
	}

	record(0, "boot (vanilla)")
	// Deploy: drop never-executed blocks and the write feature.
	if _, err := cust.DisableBlocks("unexecuted", unexec, dynacut.PolicyBlockEntry); err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	if _, err := cust.DisableBlocks("webdav-write", putBlocks, dynacut.PolicyBlockEntry); err != nil {
		return nil, fmt.Errorf("deploy features: %w", err)
	}
	record(1, "deployed (read-only)")
	// Finish initialization: drop init-only blocks.
	if _, err := cust.DisableBlocks("init", initOnly, dynacut.PolicyBlockEntry); err != nil {
		return nil, fmt.Errorf("post-init: %w", err)
	}
	record(2, "init removed")
	for tm := 3; tm <= 7; tm++ {
		record(tm, "serving")
	}
	// Admin window: re-enable PUT/DELETE.
	if _, err := cust.EnableBlocks("webdav-write"); err != nil {
		return nil, fmt.Errorf("enable window: %w", err)
	}
	record(8, "PUT/DELETE window")
	if resp := sess.MustRequest("PUT /f data\n"); !strings.Contains(resp, "201") {
		return nil, fmt.Errorf("PUT during window -> %q", resp)
	}
	if _, err := cust.DisableBlocks("webdav-write", putBlocks, dynacut.PolicyBlockEntry); err != nil {
		return nil, fmt.Errorf("close window: %w", err)
	}
	record(9, "window closed")
	for tm := 10; tm <= 12; tm++ {
		record(tm, "serving")
	}
	for _, ph := range res.Phases[1:] {
		if ph.LivePct > res.MaxPct {
			res.MaxPct = ph.LivePct
		}
	}
	return res, nil
}

// FormatF10 renders the timeline.
func FormatF10(r *F10Result) string {
	rows := make([][]string, 0, len(r.Phases))
	for _, ph := range r.Phases {
		rows = append(rows, []string{
			strconv.Itoa(ph.Time),
			fmt.Sprintf("%.1f%%", ph.LivePct*100),
			ph.Label,
		})
	}
	s := table([]string{"t", "live", "phase"}, rows)
	s += fmt.Sprintf("RAZOR  constant: %.1f%% live\n", r.RazorPct*100)
	s += fmt.Sprintf("CHISEL constant: %.1f%% live\n", r.ChiselPct*100)
	s += fmt.Sprintf("DynaCut max post-deploy: %.1f%% live\n", r.MaxPct*100)
	return s
}
