package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/dynacut/dynacut"
)

// span is one timed call at a layer boundary. Times are process CPU
// nanoseconds (cpuNow); Parent is 0 for a root span.
type span struct {
	Driver string `json:"driver"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// recorder keeps the spans of one driver in memory; they are written
// out once the run ends. A nil *recorder records nothing, so untraced
// passes pay one nil check per call. Methods are safe for concurrent
// use: fleet rollouts add spans from their worker lanes.
type recorder struct {
	driver string
	mu     sync.Mutex
	spans  []span
}

// add records a closed span and returns its ID.
func (r *recorder) add(name string, parent int, start, end time.Duration) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Driver: r.driver, ID: id, Parent: parent, Name: name,
		Start: int64(start), End: int64(end)})
	return id
}

// open starts a span whose end is set by close.
func (r *recorder) open(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := cpuNow()
	return r.add(name, parent, now, now)
}

// close ends a span opened with open.
func (r *recorder) close(id int) {
	if r == nil || id == 0 {
		return
	}
	now := cpuNow()
	r.mu.Lock()
	r.spans[id-1].End = int64(now)
	r.mu.Unlock()
}

// call times f as a span and returns its CPU time and the span's ID.
func (r *recorder) call(name string, parent int, f func()) (lap, int) {
	start := cpuNow()
	l := timed(f)
	return l, r.add(name, parent, start, start+l.proc)
}

// cpuTime is the process CPU clock as a time.Time, for stamping the
// program's observer events so that their phase spans nest inside the
// benchmark's own spans.
func cpuTime() time.Time { return time.Unix(0, int64(cpuNow())) }

// cpuObserver returns a program observer stamped by cpuTime.
func cpuObserver() *dynacut.Observer {
	o := dynacut.NewObserver(1024)
	o.SetWallClock(cpuTime)
	return o
}

// adopt turns the observer's phase events with sequence number >= since
// into child spans of parent and returns the next sequence number. The
// program's own phases (checkpoint, decode, edit, validate, kill,
// restore, health, rollback) become the children of the benchmark's
// call into core.
func (r *recorder) adopt(o *dynacut.Observer, since uint64, parent int) uint64 {
	if r == nil || o == nil {
		return since
	}
	type key struct {
		name    string
		attempt int
	}
	open := map[key]int64{}
	for _, ev := range o.Events() {
		if ev.Seq < since {
			continue
		}
		k := key{ev.Name, ev.Attempt}
		switch ev.Kind {
		case "phase-start":
			open[k] = ev.WallNS
		case "phase-end":
			if st, ok := open[k]; ok {
				r.add(ev.Name, parent, time.Duration(st), time.Duration(ev.WallNS))
				delete(open, k)
			}
		}
	}
	return o.Seq()
}

// finish computes every span's self time: its duration minus the part
// of its interval that its children cover (children may overlap when
// worker lanes run side by side).
func (r *recorder) finish() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := map[int][][2]int64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		s.Self = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return append([]span(nil), r.spans...)
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// spanStats summarises finished spans by name: median duration and
// median self time, in microseconds.
type spanStats struct {
	n       int
	durUS   float64
	selfUS  float64
	totalUS float64
}

func summarize(spans []span) map[string]spanStats {
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(s.Self)/1e3)
	}
	out := map[string]spanStats{}
	for name, d := range durs {
		out[name] = spanStats{n: len(d), durUS: median(d), selfUS: median(selfs[name]), totalUS: sum(d)}
	}
	return out
}

// writeSpans writes every span as one JSON line to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
