package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/dynacut/dynacut"
)

// specGuests are the SPEC-shaped CPU-bound guests of Figure 7.
var specGuests = []string{"605.mcf_s", "631.deepsjeng_s"}

const (
	// specScale divides each profile's serving-phase passes. A guest
	// then runs about 100,000 instructions, so a run holds a hundred
	// init cuts for the wall-clock downtime median, while the 20,000
	// instructions of the cut's post-restore liveness probe stay a
	// fifth of the guest. The guest keeps its shape (functions, init
	// share); only its loop count shrinks.
	specScale = 4
	// specBudget bounds one guest's instructions; a guest that needs
	// more is wedged.
	specBudget   = 100_000_000
	specWarmRuns = 2
)

// specGuest is one built guest with its init-only blocks (profiled
// once) and the reference outcome of an init-cut run.
type specGuest struct {
	app  *dynacut.SpecApp
	init []dynacut.AbsBlock
	ref  specOutcome
}

// specDriver runs the guests from a fresh Load each time: through
// init, an init-block cut (Figure 7), then to completion with no
// tracer attached.
type specDriver struct {
	rng    *rand.Rand
	guests []*specGuest
	order  []int
	chk    tally
	rec    *recorder

	specSamples
}

// specSamples are the figures of one pass.
type specSamples struct {
	runTicks uint64
	runCPU   time.Duration
	cutUS    []float64
	downUS   []float64
	runs     int
	allocs   uint64
	bytes    uint64
	hits     uint64
	misses   uint64
	layer    map[string][]float64
}

// setupSpec builds each guest, profiles its init-only blocks with the
// coverage tracer, and records the reference run: an init-cut run whose
// outcome must equal the uncut profiling run's.
func setupSpec(seed int64) (*specDriver, error) {
	d := &specDriver{rng: rand.New(rand.NewSource(seed))}
	for _, name := range specGuests {
		prof, ok := findProfile(name)
		if !ok {
			return nil, fmt.Errorf("no SPEC profile %s", name)
		}
		prof.LoopIters = max(1, prof.LoopIters/specScale)
		app, err := dynacut.BuildSpec(prof)
		if err != nil {
			return nil, err
		}
		g := &specGuest{app: app}
		var uncut specOutcome
		if g.init, uncut, err = profileInit(app); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		o, err := d.iterate(g, false)
		if err != nil {
			return nil, fmt.Errorf("%s reference run: %w", name, err)
		}
		// Wiping init-only blocks must not change what the guest
		// does afterwards: the cut run retires the same vticks and
		// exits the same way as the uncut run profileInit made.
		if o != uncut {
			return nil, fmt.Errorf("%s: init-cut run %+v differs from the uncut run %+v", name, o, uncut)
		}
		g.ref = o
		d.guests = append(d.guests, g)
	}
	return d, nil
}

func findProfile(name string) (dynacut.SpecProfile, bool) {
	for _, p := range dynacut.SpecProfiles() {
		if p.Name == name {
			return p, true
		}
	}
	return dynacut.SpecProfile{}, false
}

// profileInit boots the guest under the coverage tracer (StartServer
// snapshots init coverage at the guest's nudge), runs it to completion,
// and returns the blocks that ran during init and never after, and the
// outcome of this uncut run.
func profileInit(app *dynacut.SpecApp) ([]dynacut.AbsBlock, specOutcome, error) {
	sess, err := dynacut.StartServer(app.Exe, []*dynacut.Binary{app.Libc}, 0)
	if err != nil {
		return nil, specOutcome{}, err
	}
	p, err := sess.Root()
	if err != nil {
		return nil, specOutcome{}, err
	}
	mods := p.Modules()
	for !p.Exited() {
		if sess.Machine.Run(1<<20) == 0 {
			return nil, specOutcome{}, fmt.Errorf("wedged while profiling")
		}
	}
	serving := dynacut.GraphFromLog(sess.Collector.Snapshot(mods, "serving"))
	blocks := dynacut.IdentifyInitBlocks(sess.InitGraph(), serving, app.Exe.Name)
	if len(blocks) == 0 {
		return nil, specOutcome{}, fmt.Errorf("no init-only blocks")
	}
	return blocks, specOutcome{ticks: sess.Machine.Clock(), exit: p.ExitCode()}, nil
}

// specOutcome is how a guest run ended: the machine clock (guest
// vticks) and the exit status (128+signal for a signal death).
type specOutcome struct {
	ticks uint64
	exit  int
}

// iterate runs one guest: fresh Load, init, init cut, completion.
// With sample set it records the timings.
func (d *specDriver) iterate(g *specGuest, sample bool) (specOutcome, error) {
	root := d.rec.open("spec.guest", 0)
	defer d.rec.close(root)
	m := dynacut.NewMachine()
	p, err := m.Load(g.app.Exe, g.app.Libc)
	if err != nil {
		return specOutcome{}, err
	}
	nudged := false
	m.SetNudgeFunc(func(int, uint64) { nudged = true })
	ticks, cpu := uint64(0), time.Duration(0)
	memDelta := d.rec != nil && sample
	run := func(f func()) {
		var ms0, ms1 runtime.MemStats
		if memDelta {
			runtime.ReadMemStats(&ms0)
		}
		c0 := m.Clock()
		t, _ := d.rec.call("kernel.run", root, f)
		cpu += t.thread
		ticks += m.Clock() - c0
		if memDelta {
			runtime.ReadMemStats(&ms1)
			d.allocs += ms1.Mallocs - ms0.Mallocs
			d.bytes += ms1.TotalAlloc - ms0.TotalAlloc
		}
	}
	run(func() { m.RunUntil(func() bool { return nudged }, specBudget) })
	if !nudged {
		return specOutcome{}, fmt.Errorf("init never finished")
	}

	var obs *dynacut.Observer
	if d.rec != nil {
		obs = cpuObserver()
	}
	cust, err := dynacut.NewCustomizer(m, p.PID(), dynacut.CustomizerOptions{Observer: obs})
	if err != nil {
		return specOutcome{}, err
	}
	var st dynacut.RewriteStats
	bc0 := m.BlockCacheStats()
	cut, id := d.rec.call("core.DisableBlocks", root, func() {
		st, err = cust.DisableBlocks("init", g.init, dynacut.PolicyWipeBlocks)
	})
	d.rec.adopt(obs, 0, id)
	if err != nil {
		return specOutcome{}, fmt.Errorf("init cut: %w", err)
	}
	if d.rec != nil && sample {
		d.chk.check(imageLayers(d.rec, d.layer, root, m.Clone(), cust.PID()) == nil)
	}

	proc, err := m.Process(cust.PID())
	if err != nil {
		return specOutcome{}, err
	}
	wedged := false
	run(func() {
		for !proc.Exited() && !wedged {
			wedged = m.Run(1<<20) == 0
		}
	})
	if wedged {
		return specOutcome{}, fmt.Errorf("wedged after the init cut")
	}
	if sample {
		d.runTicks += ticks
		d.runCPU += cpu
		d.cutUS = append(d.cutUS, us(cut.proc))
		d.downUS = append(d.downUS, us(st.Downtime))
		d.runs++
		if d.rec != nil {
			rewriteLayers(d.layer, st)
			bc1 := m.BlockCacheStats()
			d.layer["kernel.bcache.flushes_per_cut"] = append(d.layer["kernel.bcache.flushes_per_cut"], cacheFlushes(bc1, bc0))
			d.hits += bc1.Hits
			d.misses += bc1.Misses
		}
	}
	return specOutcome{ticks: m.Clock(), exit: proc.ExitCode()}, nil
}

// next picks the next guest: every round runs each guest once, in an
// order drawn from the seed.
func (d *specDriver) next() *specGuest {
	if len(d.order) == 0 {
		d.order = d.rng.Perm(len(d.guests))
	}
	g := d.guests[d.order[0]]
	d.order = d.order[1:]
	return g
}

// guest runs one guest and checks it against its reference run.
func (d *specDriver) guest(sample bool) {
	g := d.next()
	o, err := d.iterate(g, sample)
	d.chk.check(err == nil && o == g.ref)
}

func (d *specDriver) warm() {
	for i := 0; i < specWarmRuns; i++ {
		d.guest(false)
	}
}

func (d *specDriver) step() {
	runtime.GC()
	d.guest(true)
}

func (d *specDriver) progress() float64 { return float64(d.runs) }

func (d *specDriver) reset() { d.specSamples = specSamples{layer: map[string][]float64{}} }

func (d *specDriver) endToEnd() map[string]float64 {
	return map[string]float64{
		"guest_minst_s":   ratio(float64(d.runTicks), d.runCPU.Seconds()) / 1e6,
		"cut_p50_us":      percentile(d.cutUS, 50),
		"downtime_p50_us": percentile(d.downUS, 50),
	}
}

func (d *specDriver) perLayer(spans []span) map[string]float64 {
	out := medians(d.layer)
	phaseLayers(out, summarize(spans), "core.DisableBlocks")
	out["kernel.ns_per_inst"] = ratio(float64(d.runCPU), float64(d.runTicks))
	out["kernel.allocs_per_inst"] = ratio(float64(d.allocs), float64(d.runTicks))
	out["kernel.bytes_per_inst"] = ratio(float64(d.bytes), float64(d.runTicks))
	out["kernel.bcache.hit_ratio"] = ratio(float64(d.hits), float64(d.hits+d.misses))
	return out
}

func (d *specDriver) trace(rec *recorder) { d.rec = rec }

func (d *specDriver) checks() tally { return d.chk }
