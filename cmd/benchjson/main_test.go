package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestParseLogRecordsPackagePerResult: a run over two packages prints
// a pkg: header before each package's results, and every result keeps
// the package it ran in — not the last one seen.
func TestParseLogRecordsPackagePerResult(t *testing.T) {
	log := `goos: linux
goarch: amd64
pkg: github.com/dynacut/dynacut
cpu: Test CPU
BenchmarkFigure6_Lighttpd-2   	       1	   1234 ns/op	   56 B/op	  7 allocs/op
BenchmarkFigure8_ServiceInterruption-2 	 1	   9999 ns/op
PASS
ok  	github.com/dynacut/dynacut	1.234s
goos: linux
goarch: amd64
pkg: github.com/dynacut/dynacut/internal/criu
cpu: Test CPU
BenchmarkIncrementalDump-2    	      10	    500 ns/op	   12.5 pages/op
PASS
ok  	github.com/dynacut/dynacut/internal/criu	0.5s
`
	var rep Report
	var tee bytes.Buffer
	if err := parseLog(strings.NewReader(log), &tee, &rep); err != nil {
		t.Fatal(err)
	}
	if tee.String() != log {
		t.Error("log not copied through unchanged")
	}
	want := []struct{ pkg, name string }{
		{"github.com/dynacut/dynacut", "BenchmarkFigure6_Lighttpd-2"},
		{"github.com/dynacut/dynacut", "BenchmarkFigure8_ServiceInterruption-2"},
		{"github.com/dynacut/dynacut/internal/criu", "BenchmarkIncrementalDump-2"},
	}
	if len(rep.Results) != len(want) {
		t.Fatalf("%d results, want %d: %+v", len(rep.Results), len(want), rep.Results)
	}
	for i, w := range want {
		if r := rep.Results[i]; r.Pkg != w.pkg || r.Name != w.name {
			t.Errorf("result %d = %s in %q, want %s in %q", i, r.Name, r.Pkg, w.name, w.pkg)
		}
	}
	if got := rep.Results[2].Metrics["pages/op"]; got != 12.5 {
		t.Errorf("custom metric pages/op = %v, want 12.5", got)
	}
	if rep.Goos != "linux" || rep.CPU != "Test CPU" {
		t.Errorf("header lines lost: goos %q cpu %q", rep.Goos, rep.CPU)
	}
}
