package main

import (
	"math/rand"
	"runtime"
	"time"

	"github.com/dynacut/dynacut"
)

const (
	fleetReplicas   = 32
	fleetCycles     = 2 // disable/enable cycles per spawned fleet
	fleetWarmRounds = 1
	fleetMinRounds  = 10
	// probeBudget bounds the guest instructions one probe may take.
	probeBudget = 2_000_000
	webPort     = 8080

	// The probes and the guest's exact answers. GET writes the stored
	// file, if any, before its status line; an accepted PUT stores its
	// body, the request after "PUT ".
	getReq     = "GET /\n"
	putReq     = "PUT /f data\n"
	putBody    = "/f data\n"
	respOK     = "200 OK\n"
	respCreate = "201 Created\n"
	respDenied = "403 Forbidden\n"
)

// fleetDriver clones a booted lighttpd template into CoW replicas and,
// per cycle, rolls out a webdav-write cut, probes every replica, rolls
// out the re-enable, and probes again.
type fleetDriver struct {
	rng     *rand.Rand
	sess    *dynacut.Session
	blocks  []dynacut.AbsBlock
	redir   uint64
	workers int
	chk     tally
	rec     *recorder

	spawned *dynacut.Fleet // spawned by set-up, not yet used
	fleetSamples
}

// fleetSamples are the figures of one pass.
type fleetSamples struct {
	rolloutUS, memKB, reqUS []float64
	probeTicks              uint64
	probeRunCPU             time.Duration
	probeSyscalls           int64
	allocs, bytes           uint64
	hits, misses            uint64
	rounds                  int
	layer                   map[string][]float64
}

// setupFleet builds and boots the lighttpd template and profiles the
// webdav-write feature (PUT and DELETE) against the read methods.
func setupFleet(seed int64) (*fleetDriver, error) {
	app, err := dynacut.BuildWebServer(dynacut.WebServerConfig{Name: "lighttpd", Port: webPort})
	if err != nil {
		return nil, err
	}
	sess, err := dynacut.StartServer(app.Exe, []*dynacut.Binary{app.Libc}, webPort)
	if err != nil {
		return nil, err
	}
	blocks, err := sess.ProfileFeatures(
		[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n"},
		[]string{"PUT /f data\n", "DELETE /f\n"},
	)
	if err != nil {
		return nil, err
	}
	redir, err := sess.SymbolAddr("resp_403")
	if err != nil {
		return nil, err
	}
	d := &fleetDriver{
		rng: rand.New(rand.NewSource(seed)), sess: sess, blocks: blocks, redir: redir,
		workers: runtime.NumCPU(),
	}
	// Spawning is part of set-up: a fleet's spawn cost swung by up to
	// half from run to run on a contended host, too much for a gated
	// metric of its own. This fleet serves the first, warm-up round.
	if d.spawned, err = d.spawn(); err != nil {
		return nil, err
	}
	return d, nil
}

// spawn clones the template into a fresh fleet.
func (d *fleetDriver) spawn() (*dynacut.Fleet, error) {
	return dynacut.NewFleetFromSession(d.sess, dynacut.FleetConfig{
		Replicas: fleetReplicas,
		Workers:  d.workers,
		WaveSize: fleetReplicas, // one canary, then the rest in one wave
		Core: dynacut.CustomizerOptions{
			RedirectTo:  d.redir,
			HealthCheck: dynacut.HealthProbe(webPort, getReq, "200"),
		},
	})
}

func (d *fleetDriver) warm() {
	for i := 0; i < fleetWarmRounds; i++ {
		d.round(false)
	}
}

func (d *fleetDriver) step() { d.round(true) }

func (d *fleetDriver) progress() float64 { return float64(d.rounds) / fleetMinRounds }

func (d *fleetDriver) reset() { d.fleetSamples = fleetSamples{layer: map[string][]float64{}} }

// round spawns one fleet and runs fleetCycles cycles on it.
func (d *fleetDriver) round(sample bool) {
	root := d.rec.open("fleet.round", 0)
	defer d.rec.close(root)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc

	// Set-up's fleet serves the first round, the warm-up, whose figures
	// are dropped.
	f, t := d.spawned, lap{}
	d.spawned = nil
	if f == nil {
		var err error
		t, _ = d.rec.call("fleet.spawn", root, func() { f, err = d.spawn() })
		d.chk.check(err == nil)
		if err != nil {
			return
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if sample {
		appendLayer(d.layer, "fleet.spawn_us_per_replica", us(t.proc)/fleetReplicas)
		d.memKB = append(d.memKB, (float64(ms.HeapAlloc)-float64(heap0))/fleetReplicas/1024)
	}
	reps := f.Replicas()
	seqs := make([]uint64, len(reps))
	files := make([]string, len(reps)) // each replica's stored file
	if d.rec != nil {
		for _, r := range reps {
			r.Obs.SetWallClock(cpuTime)
		}
	}

	for c := 0; c < fleetCycles; c++ {
		d.rollout(root, f, seqs, "core.DisableBlocks", func(r *dynacut.FleetReplica) (dynacut.RewriteStats, error) {
			return r.Cust.DisableBlocks("webdav-write", d.blocks, dynacut.PolicyBlockEntry)
		}, sample)
		d.probeAll(root, reps, files, false, sample)
		d.rollout(root, f, seqs, "core.EnableBlocks", func(r *dynacut.FleetReplica) (dynacut.RewriteStats, error) {
			return r.Cust.EnableBlocks("webdav-write")
		}, sample)
		d.probeAll(root, reps, files, true, sample)
	}
	if sample {
		st := f.Store().Stats()
		appendLayer(d.layer, "pagestore.dedup_ratio", ratio(float64(st.DedupHits), float64(st.PagesInterned)))
		appendLayer(d.layer, "pagestore.stored_kb", float64(st.StoredBytes)/1024)
		for _, r := range reps {
			bc := r.Machine.BlockCacheStats()
			d.hits += bc.Hits
			d.misses += bc.Misses
		}
		d.rounds++
	}
	runtime.KeepAlive(f)
}

// rollout runs one fleet-wide rewrite and checks every replica
// committed. Traced passes record each replica's call as a span and
// adopt the replica observer's phases under it.
func (d *fleetDriver) rollout(parent int, f *dynacut.Fleet, seqs []uint64, call string,
	apply func(*dynacut.FleetReplica) (dynacut.RewriteStats, error), sample bool) {
	reps := f.Replicas()
	var before []dynacut.BlockCacheStats
	for _, r := range reps {
		before = append(before, r.Machine.BlockCacheStats())
	}
	runtime.GC()
	id := d.rec.open("fleet.Rollout", parent)
	callIDs := make([]int, len(reps))
	traced := apply
	if d.rec != nil {
		traced = func(r *dynacut.FleetReplica) (dynacut.RewriteStats, error) {
			start := cpuNow()
			st, err := apply(r)
			callIDs[r.Index] = d.rec.add(call, id, start, cpuNow())
			return st, err
		}
	}
	wall := time.Now()
	t0 := cpuNow()
	res, err := f.Rollout(traced)
	t := cpuNow() - t0
	makespan := time.Since(wall)
	d.rec.close(id)
	d.chk.check(err == nil && res.Committed() == len(reps))
	if err != nil || !sample {
		return
	}
	for _, r := range reps {
		seqs[r.Index] = d.rec.adopt(r.Obs, seqs[r.Index], callIDs[r.Index])
	}
	d.rolloutUS = append(d.rolloutUS, us(t)/float64(len(reps)))
	disable := call == "core.DisableBlocks"
	var total time.Duration
	for _, o := range res.Outcomes {
		total += o.Stats.Total()
		if disable && d.rec != nil {
			rewriteLayers(d.layer, o.Stats)
		}
	}
	if d.rec == nil {
		return
	}
	appendLayer(d.layer, "fleet.makespan_ms", float64(makespan)/float64(time.Millisecond))
	appendLayer(d.layer, "fleet.parallel_speedup", ratio(float64(total), float64(makespan)))
	appendLayer(d.layer, "fleet.committed_ratio", ratio(float64(res.Committed()), float64(len(reps))))
	appendLayer(d.layer, "fleet.serial_vticks", float64(res.SerialTicks))
	appendLayer(d.layer, "fleet.fleet_vticks", float64(res.FleetTicks))
	if disable {
		var flushes float64
		for i, r := range reps {
			flushes += cacheFlushes(r.Machine.BlockCacheStats(), before[i])
		}
		appendLayer(d.layer, "kernel.bcache.flushes_per_cut", flushes/float64(len(reps)))
		d.chk.check(imageLayers(d.rec, d.layer, id, reps[0].Machine.Clone(), reps[0].Cust.PID()) == nil)
	}
}

// probeAll sends GET and PUT to every replica, in a seeded order. GET
// must answer 200 with the replica's stored file; PUT must answer 403
// while webdav-write is cut and 201 once it is restored (writable),
// and then stores its body. files holds each replica's stored file.
func (d *fleetDriver) probeAll(parent int, reps []*dynacut.FleetReplica, files []string, writable, sample bool) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	traced := d.rec != nil && sample
	var sc0 int64
	if traced {
		for _, r := range reps {
			sc0 += r.Obs.Counter("kernel.syscalls")
		}
		runtime.ReadMemStats(&ms0)
	}
	for _, i := range d.rng.Perm(len(reps)) {
		m := reps[i].Machine
		d.probe(parent, m, getReq, files[i]+respOK, sample)
		if writable {
			d.probe(parent, m, putReq, respCreate, sample)
			files[i] = putBody
		} else {
			d.probe(parent, m, putReq, respDenied, sample)
		}
	}
	if traced {
		runtime.ReadMemStats(&ms1)
		d.allocs += ms1.Mallocs - ms0.Mallocs
		d.bytes += ms1.TotalAlloc - ms0.TotalAlloc
		var sc1 int64
		for _, r := range reps {
			sc1 += r.Obs.Counter("kernel.syscalls")
		}
		d.probeSyscalls += sc1 - sc0
	}
}

// probe sends one request over a fresh connection, runs the replica
// until the guest closes it, and checks the whole answer.
func (d *fleetDriver) probe(parent int, m *dynacut.Machine, req, want string, sample bool) {
	ok, ticks := false, uint64(0)
	var run lap
	t, _ := d.rec.call("fleet.probe", parent, func() {
		conn, err := m.Dial(webPort)
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(req)); err != nil {
			return
		}
		c0 := m.Clock()
		run = timed(func() { m.RunUntil(conn.Closed, probeBudget) })
		ticks = m.Clock() - c0
		ok = string(conn.ReadAll()) == want
	})
	d.chk.check(ok)
	if sample {
		d.reqUS = append(d.reqUS, us(t.thread))
		d.probeTicks += ticks
		d.probeRunCPU += run.thread
	}
}

func (d *fleetDriver) endToEnd() map[string]float64 {
	return map[string]float64{
		"req_p50_us":             percentile(d.reqUS, 50),
		"rollout_us_per_replica": percentile(d.rolloutUS, 50),
		"replica_mem_kb":         percentile(d.memKB, 50),
	}
}

func (d *fleetDriver) perLayer(spans []span) map[string]float64 {
	out := medians(d.layer)
	phaseLayers(out, summarize(spans), "core.DisableBlocks")
	out["kernel.ns_per_inst"] = ratio(float64(d.probeRunCPU), float64(d.probeTicks))
	out["kernel.allocs_per_inst"] = ratio(float64(d.allocs), float64(d.probeTicks))
	out["kernel.bytes_per_inst"] = ratio(float64(d.bytes), float64(d.probeTicks))
	out["kernel.insts_per_req"] = ratio(float64(d.probeTicks), float64(len(d.reqUS)))
	out["kernel.syscalls_per_req"] = ratio(float64(d.probeSyscalls), float64(len(d.reqUS)))
	out["kernel.bcache.hit_ratio"] = ratio(float64(d.hits), float64(d.hits+d.misses))
	return out
}

func (d *fleetDriver) trace(rec *recorder) { d.rec = rec }

func (d *fleetDriver) checks() tally { return d.chk }
