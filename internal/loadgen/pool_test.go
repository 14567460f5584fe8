package loadgen

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// Throughput returns responses in bucket i (0 outside the run).
func (r *Result) Throughput(i int) int {
	if i < 0 || i >= len(r.Buckets) {
		return 0
	}
	return r.Buckets[i].Responses
}

// TestPoolDrivesClonedReplicas is the fleet traffic shape: one booted
// template cloned into N replicas, each driven by its own OpenDriver
// under a bounded worker count, results merged into one fleet view.
func TestPoolDrivesClonedReplicas(t *testing.T) {
	m, port := bootKV(t)
	const replicas = 4
	pool := &OpenPool{Workers: 2}
	for i := 0; i < replicas; i++ {
		pool.Drivers = append(pool.Drivers, &OpenDriver{
			Machine:     m.Clone(),
			Port:        port,
			Schedule:    NewConstant(20_000),
			Mix:         NewMix(Request{Payload: "PING\n"}),
			BucketTicks: 50_000,
		})
	}

	results, err := pool.Run(150_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != replicas {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r == nil || r.Errors != 0 || r.Total == 0 || r.Served() != r.Total {
			t.Fatalf("replica %d result = %+v", i, r)
		}
	}

	merged := Merge(results...)
	wantTotal, wantBuckets := 0, 0
	for _, r := range results {
		wantTotal += r.Total
		wantBuckets = max(wantBuckets, len(r.Buckets))
	}
	if merged.Total != wantTotal || merged.Latency.Count() != wantTotal {
		t.Fatalf("merged total = %d (samples %d), want %d", merged.Total, merged.Latency.Count(), wantTotal)
	}
	// The horizon covers three buckets; a tail completion may open one
	// more.
	if len(merged.Buckets) != wantBuckets || wantBuckets < 3 {
		t.Fatalf("merged buckets = %d, want %d (>= 3)", len(merged.Buckets), wantBuckets)
	}
	for b := 0; b < wantBuckets; b++ {
		sum := 0
		for _, r := range results {
			sum += r.Throughput(b)
		}
		if merged.Throughput(b) != sum {
			t.Errorf("bucket %d: merged %d, want %d", b, merged.Throughput(b), sum)
		}
	}
	// The template machine was not driven: its clock never moved past
	// boot while the clones each advanced independently.
	for i, d := range pool.Drivers {
		if d.Machine.Clock() <= m.Clock() {
			t.Errorf("replica %d clock %d did not advance past template %d", i, d.Machine.Clock(), m.Clock())
		}
	}
}

func TestPoolReportsPerReplicaFailure(t *testing.T) {
	m, port := bootKV(t)
	good := &OpenDriver{Machine: m.Clone(), Port: port, Schedule: NewConstant(20_000), Mix: NewMix(Request{Payload: "PING\n"})}
	bad := &OpenDriver{Machine: m.Clone(), Port: port} // no schedule
	pool := &OpenPool{Drivers: []*OpenDriver{good, bad}}
	results, err := pool.Run(100_000)
	if err == nil {
		t.Fatal("pool swallowed a driver failure")
	}
	if results[0] == nil || results[0].Total == 0 {
		t.Fatal("healthy replica did not complete")
	}
	if results[1] != nil {
		t.Fatal("failed replica produced a result")
	}
	if merged := Merge(results...); merged.Total != results[0].Total {
		t.Fatalf("merge over nil slot = %+v", merged)
	}
}

// TestPoolJoinsAllFailures pins the errors.Join fix: the doc always
// promised a joined error, but the old code returned only the first
// failing replica's error, hiding the rest of a multi-replica outage.
func TestPoolJoinsAllFailures(t *testing.T) {
	m, port := bootKV(t)
	mix := NewMix(Request{Payload: "PING\n"})
	pool := &OpenPool{Drivers: []*OpenDriver{
		{Machine: m.Clone(), Port: port},                                          // replica 0: no schedule
		{Machine: m.Clone(), Port: port, Schedule: NewConstant(20_000), Mix: mix}, // replica 1: healthy
		{Machine: m.Clone(), Port: port},                                          // replica 2: no schedule
	}}
	results, err := pool.Run(100_000)
	if err == nil {
		t.Fatal("pool swallowed failures")
	}
	if !errors.Is(err, ErrNoSchedule) {
		t.Fatalf("err = %v, want ErrNoSchedule reachable via errors.Is", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "replica 0") || !strings.Contains(msg, "replica 2") {
		t.Fatalf("joined error missing a replica: %q", msg)
	}
	if strings.Contains(msg, "replica 1") {
		t.Fatalf("healthy replica blamed: %q", msg)
	}
	if results[1] == nil || results[1].Total == 0 {
		t.Fatal("healthy replica did not complete")
	}
}

// TestOpenPoolDrivesReplicas: the pool gives every replica the same
// schedule and merges cleanly, and a failure names its replica.
func TestOpenPoolDrivesReplicas(t *testing.T) {
	m, port := bootKV(t)
	mix := NewMix(Request{Payload: "PING\n"})
	sched := NewConstant(20_000)
	pool := &OpenPool{Workers: 2}
	for i := 0; i < 3; i++ {
		pool.Drivers = append(pool.Drivers, &OpenDriver{
			Machine: m.Clone(), Port: port, Schedule: sched, Mix: mix.Clone(),
		})
	}
	results, err := pool.Run(200_000)
	if err != nil {
		t.Fatal(err)
	}
	merged := Merge(results...)
	if merged.Total != 30 {
		t.Fatalf("merged total = %d, want 30", merged.Total)
	}
	if got := merged.Served() + merged.Errors + merged.Dropped; got != merged.Total {
		t.Fatalf("merged conservation broken: %d != %d", got, merged.Total)
	}

	pool.Drivers[1].Schedule = nil
	_, err = pool.Run(200_000)
	if err == nil || !errors.Is(err, ErrNoSchedule) || !strings.Contains(err.Error(), "replica 1") {
		t.Fatalf("open pool failure = %v, want replica-1 ErrNoSchedule", err)
	}
}

// TestQuickMergePreservesTotals: for arbitrary per-replica results —
// sparse bucket shapes, different bucket counts, nil slots — Merge
// must preserve every total and every per-bucket sum exactly.
func TestQuickMergePreservesTotals(t *testing.T) {
	f := func(replicas [][]uint16, nilMask uint64) bool {
		var results []*Result
		wantBuckets := map[int]Bucket{}
		wantTotal, wantErrors, wantDropped, wantSamples := 0, 0, 0, 0
		for ri, vals := range replicas {
			if nilMask&(1<<(uint(ri)%64)) != 0 {
				results = append(results, nil)
				continue
			}
			r := &Result{}
			for i, v := range vals {
				// Spread values over buckets sparsely: replica shapes
				// differ and some buckets stay zero.
				b := r.bucketAt(uint64(i)*uint64(1+v%97), 100)
				b.Responses += int(v % 5)
				b.Offered += int(v % 7)
				b.Dropped += int(v % 3)
				b.Errors += int(v % 2)
				r.Latency.Add(uint64(v))
				r.Total++
				r.Errors += int(v % 2)
				r.Dropped += int(v % 3)
			}
			for _, b := range r.Buckets {
				w := wantBuckets[b.Index]
				w.Index = b.Index
				w.Responses += b.Responses
				w.Offered += b.Offered
				w.Dropped += b.Dropped
				w.Errors += b.Errors
				wantBuckets[b.Index] = w
			}
			wantTotal += r.Total
			wantErrors += r.Errors
			wantDropped += r.Dropped
			wantSamples += r.Latency.Count()
			results = append(results, r)
		}
		m := Merge(results...)
		if m.Total != wantTotal || m.Errors != wantErrors || m.Dropped != wantDropped || m.Latency.Count() != wantSamples {
			return false
		}
		for _, b := range m.Buckets {
			if b != wantBuckets[b.Index] && (Bucket{Index: b.Index}) != b {
				return false
			}
		}
		for i, w := range wantBuckets {
			if i >= len(m.Buckets) || m.Buckets[i] != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
