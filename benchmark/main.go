// Command benchmark is DynaCut-Go's end-to-end benchmark: one process
// runs one seeded workload against the public dynacut API, checks every
// output, and prints its metrics as one JSON line. README.md records why
// each workload exists and which layer should move which metric.
//
//	go build -o dynacut-bench . && ./dynacut-bench --workload kv-cut --seed 1 --seconds 10 --trace 0
//
// Host durations are CPU time; clock.go says which clock times what.
// --trace 1 runs the workload a second time with spans and program
// observers attached and reports the per-layer metrics instead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/dynacut/dynacut"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 9

// driver is one traffic generator over one layer stack. Its work comes
// in units (a spec guest, a kv epoch, a fleet round), each sampled in
// full.
type driver interface {
	// reset drops the samples of the previous pass.
	reset()
	// warm runs the units whose samples are dropped.
	warm()
	// step runs one sampled unit.
	step()
	// progress is the share of its minimum samples the driver has
	// taken; 1 or more means they are all in.
	progress() float64
	// trace attaches a span recorder and program observers for the
	// traced pass.
	trace(rec *recorder)
	endToEnd() map[string]float64
	perLayer(spans []span) map[string]float64
	checks() tally
}

// workload names its primary driver, which gets the --seconds budget
// and whose figures win, and the companions that run their minimum
// sample counts so that every end-to-end metric is reported from a
// volume of samples on every workload.
type workload struct {
	primary    string
	companions []string
}

var workloads = map[string]workload{
	"spec-exec":     {"spec", []string{"kv", "fleet"}},
	"kv-cut":        {"kv", []string{"fleet"}},
	"fleet-rollout": {"fleet", []string{"kv"}},
}

func main() {
	// Every driver runs on this goroutine; pinning it to one thread
	// makes threadNow its own CPU clock.
	runtime.LockOSThread()
	name := flag.String("workload", "", "spec-exec, kv-cut or fleet-rollout")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "CPU seconds the primary driver measures")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: --workload spec-exec|kv-cut|fleet-rollout --seed N --seconds N --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(*name, w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, w workload, seed int64, limit time.Duration, traced bool) (*result, error) {
	drivers, setupS, err := setupAll(w, seed)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	engine := dynacut.NewMachine().ExecMode()
	fmt.Printf("workload %s seed %d engine %v workers %d setup_s samples %v\n",
		name, seed, engine, runtime.NumCPU(), setupS)

	order := byPrecedence(w)
	values := map[string]float64{}
	decl := endToEndMetrics
	if !traced {
		pass(drivers, w, limit)
		for _, n := range order {
			fill(values, drivers[n].endToEnd())
		}
		values["setup_s"] = median(setupS)
	} else {
		// An untraced pass is the baseline for the tracing overhead.
		base := pass(drivers, w, limit)
		recs := map[string]*recorder{}
		for _, n := range order {
			recs[n] = &recorder{driver: n}
			drivers[n].trace(recs[n])
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		wall, cpu := time.Now(), cpuNow()
		cost := pass(drivers, w, limit)
		wallD, cpuD := time.Since(wall), cpuNow()-cpu
		runtime.ReadMemStats(&ms1)

		var all []span
		for _, n := range order {
			spans := recs[n].finish()
			all = append(all, spans...)
			fill(values, drivers[n].perLayer(spans))
		}
		values["bench.trace_overhead_pct"] = (ratio(cost, base) - 1) * 100
		values["kernel.exec_mode"] = float64(engine)
		values["go.gc_cpu_frac"] = ms1.GCCPUFraction
		values["go.gc_count"] = float64(ms1.NumGC - ms0.NumGC)
		values["go.heap_peak_mb"] = float64(ms1.HeapSys) / (1 << 20)
		values["host.wall_over_cpu"] = ratio(float64(wallD), float64(cpuD))
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := writeSpans(path, all); err != nil {
			return nil, err
		}
		printSpans(path, all)
		decl = perLayerMetrics
	}

	res := &result{Metrics: map[string]metric{}}
	var t tally
	for _, n := range order {
		t.add(drivers[n].checks())
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.attempted > 0 && t.failed == 0
	fmt.Printf("checked %d operations, failed share %.4f\n", t.attempted, t.failedShare())
	var missing []string
	for _, m := range decl {
		v, ok := values[m.name]
		if !ok {
			missing = append(missing, m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	// A failed unit may leave a layer unmeasured; the result is then
	// reported as incorrect with those metrics at 0. With every check
	// passing, a missing metric is the benchmark's own bug.
	if len(missing) > 0 && t.failed == 0 {
		return nil, fmt.Errorf("metrics not produced: %v", missing)
	}
	return res, nil
}

// pass resets and warms every driver, then steps the primary until it
// has spent limit of process CPU time and has its minimum samples. The
// companions step in between, each as soon as its share of its minimum
// samples falls behind the primary's share of limit, so their samples
// span the whole pass instead of one burst. The primary's wall time is
// capped at twice limit so that a contended host still ends the run.
// Once a check has failed the run is incorrect whatever else it
// measures, so the minimum samples are no longer waited for: a unit
// that fails every time takes no samples and would never supply them.
// It returns the primary's process CPU per unit.
func pass(drivers map[string]driver, w workload, limit time.Duration) float64 {
	for _, n := range byPrecedence(w) {
		drivers[n].reset()
		drivers[n].warm()
	}
	failing := func() bool {
		for _, d := range drivers {
			if d.checks().failed > 0 {
				return true
			}
		}
		return false
	}
	prim := drivers[w.primary]
	var cpu, wall time.Duration
	units := 0
	for cpu < limit && wall < 2*limit || prim.progress() < 1 && !failing() {
		c, t := cpuNow(), time.Now()
		prim.step()
		cpu += cpuNow() - c
		wall += time.Since(t)
		units++
		for _, n := range w.companions {
			if d := drivers[n]; d.progress() < float64(cpu)/float64(limit) {
				d.step()
			}
		}
	}
	for _, n := range w.companions {
		for drivers[n].progress() < 1 && !failing() {
			drivers[n].step()
		}
	}
	fmt.Printf("pass: %s %d units, %.2fs CPU, %.2fs wall\n", w.primary, units, cpu.Seconds(), wall.Seconds())
	return ratio(float64(cpu), float64(units))
}

// fill copies into values the figures it does not hold yet: drivers
// are visited in precedence order, so the first to report a metric wins.
func fill(values, figures map[string]float64) {
	for k, v := range figures {
		if _, ok := values[k]; !ok {
			values[k] = v
		}
	}
}

// byPrecedence lists the workload's drivers in the order their figures
// win: the primary, then the companions as listed.
func byPrecedence(w workload) []string {
	return append([]string{w.primary}, w.companions...)
}

// setupAll sets the workload's drivers up setupReps times and keeps the
// last set; it returns each set-up's CPU seconds.
func setupAll(w workload, seed int64) (map[string]driver, []float64, error) {
	var drivers map[string]driver
	var times []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t := cpuNow()
		drivers = map[string]driver{}
		for _, n := range byPrecedence(w) {
			var d driver
			var err error
			switch n {
			case "spec":
				d, err = setupSpec(seed)
			case "kv":
				d, err = setupKV(seed)
			case "fleet":
				d, err = setupFleet(seed)
			default:
				err = errors.New("unknown driver " + n)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", n, err)
			}
			drivers[n] = d
		}
		times = append(times, (cpuNow() - t).Seconds())
	}
	return drivers, times, nil
}

// printSpans prints one line per span name: count, median duration,
// median self time and total, all process CPU microseconds.
func printSpans(path string, spans []span) {
	type row struct {
		driver, name string
	}
	groups := map[row][]span{}
	for _, s := range spans {
		k := row{s.Driver, s.Name}
		groups[k] = append(groups[k], s)
	}
	keys := make([]row, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].driver != keys[j].driver {
			return keys[i].driver < keys[j].driver
		}
		return keys[i].name < keys[j].name
	})
	fmt.Printf("spans written to %s (%d spans)\n", path, len(spans))
	fmt.Printf("%-6s %-20s %8s %12s %12s %14s\n", "driver", "span", "n", "p50_us", "self_p50_us", "total_us")
	for _, k := range keys {
		s := summarize(groups[k])[k.name]
		fmt.Printf("%-6s %-20s %8d %12.1f %12.1f %14.0f\n", k.driver, k.name, s.n, s.durUS, s.selfUS, s.totalUS)
	}
}
