package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/dynacut/dynacut"
)

// kvFeature is one Table 1 CVE command the kv-cut cycle removes and
// restores, with a benign request that exercises it.
type kvFeature struct {
	name  string
	probe string
}

var kvFeatures = []kvFeature{
	{"STRALGO", "STRALGO LCS ab\n"},
	{"CONFIG", "CONFIG SET p v\n"},
}

// kvWanted is the profiling traffic: every command of the serving mix,
// plus an unknown command so each dispatcher chain head is wanted.
var kvWanted = []string{"PING\n", "GET a\n", "SET a v\n", "EXISTS a\n", "INCR a\n", "DEL a\n", "WHAT\n"}

const (
	// kvEpochCycles is how many cycles one boot of the guest serves.
	// Each rewrite leaves the killed processes in the machine's
	// process table, and the scheduler walks that table every round,
	// so a guest slows with the rewrites behind it. Epochs of a fixed
	// length give every run the same history, whatever its budget.
	kvEpochCycles = 25
	kvMinEpochs   = 12 // epochs a companion run samples
)

// kvDriver serves a seeded write-heavy closed-loop client against the
// kvstore guest, with the coverage tracer attached, and every K
// requests cuts STRALGO and CONFIG, probes them, and restores them.
type kvDriver struct {
	rng    *rand.Rand
	k      int
	app    *dynacut.KVStoreApp
	redir  uint64
	blocks map[string][]dynacut.AbsBlock
	chk    tally
	rec    *recorder

	// the current epoch's guest
	sess  *dynacut.Session
	cust  *dynacut.Customizer
	model kvModel
	obs   *dynacut.Observer
	seq   uint64

	kvSamples
}

// kvSamples are the figures of one pass.
type kvSamples struct {
	reqUS, cutUS, enableUS, downUS []float64
	served                         int
	serveCPU                       time.Duration
	reqCPU                         time.Duration
	reqTicks                       uint64
	reqSyscalls                    int64
	rollbacks                      int64
	hits, misses                   uint64
	allocs, bytes                  uint64
	epochs                         int
	layer                          map[string][]float64
}

// setupKV builds and boots the kvstore guest and profiles the two CVE
// features on the clean server. Every epoch boots the same binary, so
// the profiled block addresses hold for all of them.
func setupKV(seed int64) (*kvDriver, error) {
	app, err := dynacut.BuildKVStore(dynacut.KVStoreConfig{})
	if err != nil {
		return nil, err
	}
	sess, err := dynacut.StartServer(app.Exe, []*dynacut.Binary{app.Libc}, app.Config.Port)
	if err != nil {
		return nil, err
	}
	redir, err := sess.SymbolAddr("resp_err")
	if err != nil {
		return nil, err
	}
	d := &kvDriver{app: app, redir: redir, blocks: map[string][]dynacut.AbsBlock{}}
	d.rng = rand.New(rand.NewSource(seed))
	d.k = 16 + d.rng.Intn(17)
	for _, f := range kvFeatures {
		blocks, err := sess.ProfileFeatures(kvWanted, []string{f.probe})
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", f.name, err)
		}
		d.blocks[f.name] = blocks
	}
	return d, nil
}

// trace makes later epochs traced: each boot attaches a CPU-clocked
// observer, whose phases become spans.
func (d *kvDriver) trace(rec *recorder) { d.rec = rec }

// boot starts a fresh guest with an empty keyspace and its customizer.
func (d *kvDriver) boot() error {
	sess, err := dynacut.StartServer(d.app.Exe, []*dynacut.Binary{d.app.Libc}, d.app.Config.Port)
	if err != nil {
		return err
	}
	d.obs, d.seq = nil, 0
	if d.rec != nil {
		d.obs = cpuObserver()
	}
	cust, err := dynacut.NewCustomizer(sess.Machine, sess.PID(), dynacut.CustomizerOptions{
		RedirectTo: d.redir, Observer: d.obs,
	})
	if err != nil {
		return err
	}
	d.sess, d.cust, d.model = sess, cust, kvModel{}
	return nil
}

// warm runs one epoch whose samples are dropped.
func (d *kvDriver) warm() { d.epoch(false) }

func (d *kvDriver) step() { d.epoch(true) }

// progress is the share of kvMinEpochs done; it stays below 1 until
// every reported tail percentile has its samples.
func (d *kvDriver) progress() float64 {
	p := float64(d.epochs) / kvMinEpochs
	if !tailOK(len(d.reqUS), 99) || !tailOK(len(d.cutUS), 90) {
		p = min(p, 0.99)
	}
	return p
}

func (d *kvDriver) reset() { d.kvSamples = kvSamples{layer: map[string][]float64{}} }

// epoch boots a fresh guest and runs kvEpochCycles cycles on it.
func (d *kvDriver) epoch(sample bool) {
	err := d.boot()
	d.chk.check(err == nil)
	if err != nil {
		return
	}
	for i := 0; i < kvEpochCycles; i++ {
		d.cycle(sample)
	}
	if sample {
		d.epochs++
		bc := d.sess.Machine.BlockCacheStats()
		d.hits += bc.Hits
		d.misses += bc.Misses
		if d.obs != nil {
			d.rollbacks += d.obs.Counter("core.rollbacks")
		}
	}
}

// cycle: cut both features, serve K requests, check that the served
// traffic touched no cut block, probe the cut features, restore them,
// and probe again. The cuts and the restores are timed on the process
// clock, so a collection runs to its end before each pair: the
// collector's background marking would otherwise be billed to
// whichever call it overlapped.
func (d *kvDriver) cycle(sample bool) {
	root := d.rec.open("kv.cycle", 0)
	runtime.GC()
	for _, f := range kvFeatures {
		var st dynacut.RewriteStats
		var err error
		bc0 := d.sess.Machine.BlockCacheStats()
		t, id := d.rec.call("core.DisableBlocks", root, func() {
			st, err = d.cust.DisableBlocks(f.name, d.blocks[f.name], dynacut.PolicyBlockEntry)
		})
		d.seq = d.rec.adopt(d.obs, d.seq, id)
		d.chk.check(err == nil)
		if sample {
			d.cutUS = append(d.cutUS, us(t.proc))
			d.downUS = append(d.downUS, us(st.Downtime))
			if d.rec != nil {
				rewriteLayers(d.layer, st)
				appendLayer(d.layer, "kernel.bcache.flushes_per_cut", cacheFlushes(d.sess.Machine.BlockCacheStats(), bc0))
			}
		}
	}
	d.snapshot(root, false) // coverage since the cut starts here

	m := d.sess.Machine
	var ms0, ms1 runtime.MemStats
	if d.rec != nil && sample {
		runtime.ReadMemStats(&ms0)
	}
	serveStart := threadNow()
	for i := 0; i < d.k; i++ {
		req := d.model.next(d.rng)
		want := d.model.apply(req)
		c0, sc0 := m.Clock(), d.syscalls()
		var resp string
		var err error
		t, _ := d.rec.call("kv.request", root, func() { resp, err = d.sess.Request(req) })
		d.chk.check(err == nil && resp == want)
		if sample {
			d.reqUS = append(d.reqUS, us(t.thread))
			d.reqCPU += t.thread
			d.reqTicks += m.Clock() - c0
			d.reqSyscalls += d.syscalls() - sc0
		}
	}
	if sample {
		d.serveCPU += threadNow() - serveStart
		d.served += d.k
	}
	if d.rec != nil && sample {
		runtime.ReadMemStats(&ms1)
		d.allocs += ms1.Mallocs - ms0.Mallocs
		d.bytes += ms1.TotalAlloc - ms0.TotalAlloc
	}
	d.snapshot(root, true)

	for _, f := range kvFeatures {
		d.probe(root, f.probe, "-ERR\n")
	}
	runtime.GC()
	for _, f := range kvFeatures {
		var err error
		t, id := d.rec.call("core.EnableBlocks", root, func() { _, err = d.cust.EnableBlocks(f.name) })
		d.seq = d.rec.adopt(d.obs, d.seq, id)
		d.chk.check(err == nil)
		if sample {
			d.enableUS = append(d.enableUS, us(t.proc))
		}
	}
	for _, f := range kvFeatures {
		d.probe(root, f.probe, "+OK\n")
	}
	if sample && d.rec != nil {
		d.imageLayers(root)
	}
	d.rec.close(root)
}

// syscalls reads the kernel's syscall counter (traced passes only).
func (d *kvDriver) syscalls() int64 {
	if d.obs == nil {
		return 0
	}
	return d.obs.Counter("kernel.syscalls")
}

// probe sends one CVE-feature request and checks the answer.
func (d *kvDriver) probe(parent int, req, want string) {
	var resp string
	var err error
	d.rec.call("kv.probe", parent, func() { resp, err = d.sess.Request(req) })
	d.chk.check(err == nil && resp == want)
}

// snapshot takes the coverage collected since the previous snapshot.
// With check set it is the safety check: the traffic served since the
// cut must not have executed any block that is cut.
func (d *kvDriver) snapshot(parent int, check bool) {
	var g *dynacut.Graph
	var err error
	t, _ := d.rec.call("trace.snapshot", parent, func() { g, err = d.sess.SnapshotPhase("served") })
	if !check {
		d.chk.check(err == nil)
		return
	}
	d.chk.check(err == nil && !touchesAny(g, d.cust.Disabled()))
	if d.rec != nil && err == nil {
		appendLayer(d.layer, "trace.snapshot_us", us(t.thread))
		appendLayer(d.layer, "trace.blocks_per_snapshot", float64(g.Count()))
	}
}

// touchesAny reports whether any executed block of g covers the entry
// of a disabled block.
func touchesAny(g *dynacut.Graph, disabled map[string][]dynacut.AbsBlock) bool {
	ran := g.Absolute()
	sort.Slice(ran, func(i, j int) bool { return ran[i].Addr < ran[j].Addr })
	for _, blocks := range disabled {
		for _, b := range blocks {
			i := sort.Search(len(ran), func(i int) bool { return ran[i].Addr > b.Addr })
			if i > 0 && b.Addr < ran[i-1].Addr+ran[i-1].Size {
				return true
			}
		}
	}
	return false
}

// imageLayers times Marshal and UnmarshalImages directly on a full dump
// of the guest's current state, taken on a clone so the live guest's
// incremental-dump chain is untouched.
func (d *kvDriver) imageLayers(parent int) {
	d.chk.check(imageLayers(d.rec, d.layer, parent, d.sess.Machine.Clone(), d.cust.PID()) == nil)
}

// endToEnd reports the pass's end-to-end metrics.
func (d *kvDriver) endToEnd() map[string]float64 {
	return map[string]float64{
		"guest_minst_s":   ratio(float64(d.reqTicks), d.reqCPU.Seconds()) / 1e6,
		"served_per_s":    ratio(float64(d.served), d.serveCPU.Seconds()),
		"req_p50_us":      percentile(d.reqUS, 50),
		"req_p99_us":      percentile(d.reqUS, 99),
		"cut_p50_us":      percentile(d.cutUS, 50),
		"reenable_p50_us": percentile(d.enableUS, 50),
		"downtime_p50_us": percentile(d.downUS, 50),
	}
}

// perLayer reports the traced pass's per-layer metrics.
func (d *kvDriver) perLayer(spans []span) map[string]float64 {
	out := medians(d.layer)
	phaseLayers(out, summarize(spans), "core.DisableBlocks")
	out["kernel.insts_per_req"] = ratio(float64(d.reqTicks), float64(len(d.reqUS)))
	out["kernel.ns_per_inst"] = ratio(float64(d.reqCPU), float64(d.reqTicks))
	out["kernel.allocs_per_inst"] = ratio(float64(d.allocs), float64(d.reqTicks))
	out["kernel.bytes_per_inst"] = ratio(float64(d.bytes), float64(d.reqTicks))
	out["kernel.syscalls_per_req"] = ratio(float64(d.reqSyscalls), float64(len(d.reqUS)))
	out["kernel.bcache.hit_ratio"] = ratio(float64(d.hits), float64(d.hits+d.misses))
	out["core.rollbacks"] = float64(d.rollbacks)
	out["core.cut_p90_us"] = percentile(d.cutUS, 90)
	return out
}

// kvModel is the benchmark's shadow of the guest's 26 one-letter
// slots, byte for byte: INCR parses whatever digits the slot holds,
// including bytes left behind by a longer earlier value.
type kvModel struct {
	slot [26][64]byte
	n    [26]int
}

// next draws one request of the serving mix: about half SETs, the rest
// GET, EXISTS, INCR and DEL over the whole keyspace.
func (m *kvModel) next(rng *rand.Rand) string {
	key := string(rune('a' + rng.Intn(26)))
	switch r := rng.Intn(20); {
	case r < 10:
		return "SET " + key + " " + value(rng) + "\n"
	case r < 15:
		return "GET " + key + "\n"
	case r < 17:
		return "EXISTS " + key + "\n"
	case r < 19:
		return "INCR " + key + "\n"
	default:
		return "DEL " + key + "\n"
	}
}

// value is a SET payload: a short number (so INCR has digits to parse)
// or a word of up to 40 letters.
func value(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return strconv.Itoa(rng.Intn(1000000))
	}
	b := make([]byte, 1+rng.Intn(40))
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// apply updates the model with req and returns the guest's expected
// answer.
func (m *kvModel) apply(req string) string {
	f := strings.Fields(req)
	if len(f) == 1 {
		if f[0] == "PING" {
			return "+PONG\n"
		}
		return "-ERR\n"
	}
	k := int(f[1][0] - 'a')
	switch f[0] {
	case "SET":
		v := strings.TrimSuffix(strings.SplitN(req, " ", 3)[2], "\n")
		m.n[k] = copy(m.slot[k][:63], v)
		return "+OK\n"
	case "GET":
		if m.n[k] == 0 {
			return "$-1\n"
		}
		return string(m.slot[k][:m.n[k]]) + "\n"
	case "EXISTS":
		if m.n[k] == 0 {
			return ":0\n"
		}
		return ":1\n"
	case "DEL":
		m.n[k] = 0
		return "+OK\n"
	case "INCR":
		var v uint64
		for _, c := range m.slot[k] {
			if c < '0' || c > '9' {
				break
			}
			v = v*10 + uint64(c-'0')
		}
		s := strconv.FormatUint(v+1, 10)
		m.n[k] = copy(m.slot[k][:], s)
		return ":" + s + "\n"
	}
	return "-ERR\n"
}

func (d *kvDriver) checks() tally { return d.chk }
