// Command benchjson converts `go test -bench` output into a JSON
// record so benchmark numbers can be tracked in-repo across PRs
// (BENCH_pr2.json and successors). It tees its stdin to stdout — the
// human-readable benchmark log stays visible — and writes the parsed
// results to the file named by -o.
//
// With -trace it also reads a JSONL trace (as written by
// Observer.WriteJSONL / cmd/tracedemo) and embeds its per-phase
// summary in the report, tying the benchmark numbers to the observed
// rewrite timeline.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | go run ./cmd/benchjson -o BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/dynacut/dynacut/internal/obs"
)

// Result is one benchmark line: its package (the last `pkg:` header
// before it), name, iteration count, and every value/unit pair Go's
// benchmark runner printed (ns/op, B/op, allocs/op, and any
// b.ReportMetric custom units).
type Result struct {
	Pkg        string             `json:"pkg,omitempty"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the whole run, plus the go test environment header lines.
// A run over several packages prints a `pkg:` header per package; each
// Result records its own.
type Report struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
	// Trace is the per-phase summary of the JSONL trace named by
	// -trace, when given.
	Trace *obs.TraceSummary `json:"trace,omitempty"`
}

func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, len(r.Metrics) > 0
}

// parseLog reads a `go test -bench` log into rep, copying every line
// to tee so the log stays readable.
func parseLog(in io.Reader, tee io.Writer, rep *Report) error {
	pkg := ""
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(tee, line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		default:
			if r, ok := parseLine(line); ok {
				r.Pkg = pkg
				rep.Results = append(rep.Results, r)
			}
		}
	}
	return sc.Err()
}

func main() {
	out := flag.String("o", "", "output JSON file (required)")
	tracePath := flag.String("trace", "", "JSONL trace file to summarize into the report")
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -o output file is required")
		os.Exit(2)
	}

	rep := Report{Results: []Result{}}
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		events, err := obs.ReadJSONL(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: reading trace: %v\n", err)
			os.Exit(1)
		}
		rep.Trace = obs.Summarize(events)
	}
	if err := parseLog(os.Stdin, os.Stdout, &rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(rep.Results), *out)
}
