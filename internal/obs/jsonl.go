package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// WriteJSONL writes the buffered events as one JSON object per line —
// the machine-readable trace export (criu-image-tool style). The ring
// is snapshotted once, so a concurrently emitting observer stays
// consistent line-to-line.
func (o *Observer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range o.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL trace back into events (benchjson's -trace
// input). Blank lines are skipped; a malformed line is an error.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("obs: bad trace line %q: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// PhaseStat aggregates the spans of one phase across a trace.
type PhaseStat struct {
	Name string `json:"name"`
	// Count is how many spans of this phase completed.
	Count int `json:"count"`
	// Errors is how many of them ended with a non-empty Err.
	Errors int `json:"errors,omitempty"`
	// WallNS / VTicks are the summed span durations on each clock.
	WallNS int64  `json:"wall_ns"`
	VTicks uint64 `json:"vticks"`
}

// TraceSummary is the aggregate view of one trace: per-phase span
// totals in first-start order, plus fault and point tallies.
type TraceSummary struct {
	Events int            `json:"events"`
	Phases []PhaseStat    `json:"phases"`
	Faults map[string]int `json:"faults,omitempty"`
	Points map[string]int `json:"points,omitempty"`
}

type spanKey struct {
	name    string
	attempt int
}

type spanStart struct {
	wall   int64
	vclock uint64
}

// Summarize reconstructs the phase timeline from a flat event list:
// phase-start/phase-end pairs are matched by (name, attempt), nesting
// and retries included. Unmatched starts (a crash mid-phase) count as
// errors with zero duration.
func Summarize(events []Event) *TraceSummary {
	s := &TraceSummary{Events: len(events)}
	idx := map[string]int{} // phase name -> index into s.Phases
	stat := func(name string) *PhaseStat {
		i, ok := idx[name]
		if !ok {
			i = len(s.Phases)
			idx[name] = i
			s.Phases = append(s.Phases, PhaseStat{Name: name})
		}
		return &s.Phases[i]
	}
	open := map[spanKey]spanStart{}
	for _, ev := range events {
		switch ev.Kind {
		case KindPhaseStart:
			stat(ev.Name) // register in first-start order
			open[spanKey{ev.Name, ev.Attempt}] = spanStart{wall: ev.WallNS, vclock: ev.VClock}
		case KindPhaseEnd:
			ps := stat(ev.Name)
			ps.Count++
			if ev.Err != "" {
				ps.Errors++
			}
			if st, ok := open[spanKey{ev.Name, ev.Attempt}]; ok {
				delete(open, spanKey{ev.Name, ev.Attempt})
				ps.WallNS += ev.WallNS - st.wall
				ps.VTicks += ev.VClock - st.vclock
			}
		case KindFault:
			if s.Faults == nil {
				s.Faults = map[string]int{}
			}
			s.Faults[ev.Name]++
		case KindPoint:
			if s.Points == nil {
				s.Points = map[string]int{}
			}
			s.Points[ev.Name]++
		}
	}
	for k := range open { // dangling spans: phase never completed
		stat(k.name).Errors++
	}
	return s
}

// Summary renders a human-readable phase summary of the current ring
// plus the metric registries — the operator-facing counterpart of
// WriteJSONL.
func (o *Observer) Summary() string {
	sum := Summarize(o.Events())
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events (%d dropped)\n", sum.Events, o.Dropped())
	if len(sum.Phases) > 0 {
		fmt.Fprintf(&b, "%-14s %6s %6s %12s %12s\n", "phase", "count", "errors", "wall", "vticks")
		for _, ps := range sum.Phases {
			fmt.Fprintf(&b, "%-14s %6d %6d %12v %12d\n",
				ps.Name, ps.Count, ps.Errors, time.Duration(ps.WallNS), ps.VTicks)
		}
	}
	writeTally := func(label string, m map[string]int) {
		if len(m) == 0 {
			return
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "%s:", label)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s×%d", k, m[k])
		}
		b.WriteByte('\n')
	}
	writeTally("faults", sum.Faults)
	writeTally("points", sum.Points)
	counters, gauges := o.Counters(), o.Gauges()
	writeKV := func(label string, m map[string]int64) {
		if len(m) == 0 {
			return
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "%s:", label)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%d", k, m[k])
		}
		b.WriteByte('\n')
	}
	writeKV("counters", counters)
	writeKV("gauges", gauges)
	return b.String()
}
