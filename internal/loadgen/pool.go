package loadgen

import (
	"errors"
	"fmt"
	"sync"
)

// OpenPool drives per-replica workloads across a fleet: one
// schedule-following OpenDriver per replica machine, all over the same
// horizon, run concurrently under a bounded worker count. Machines are
// fully independent (each replica has its own virtual clock and
// network), so drivers never contend on guest state — the bound only
// models a load-generation host with finite parallelism.
type OpenPool struct {
	Drivers []*OpenDriver
	// Workers bounds how many drivers run concurrently (0 = all).
	Workers int
}

// Run drives every open-loop driver for horizon vticks and returns the
// per-replica results in driver order. A driver failure leaves a nil
// slot; the other replicas still complete, and the returned error
// joins every per-replica failure (each wrapped with its replica
// index), so errors.Is/As see all of them, not just the first.
func (p *OpenPool) Run(horizon uint64) ([]*Result, error) {
	n := len(p.Drivers)
	results := make([]*Result, n)
	errs := make([]error, n)
	workers := p.Workers
	if workers <= 0 || workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := p.Drivers[i].Run(horizon)
			if err != nil {
				err = fmt.Errorf("loadgen: replica %d: %w", i, err)
			}
			results[i], errs[i] = res, err
		}(i)
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// Merge folds per-replica results into one fleet-level result: bucket
// throughput, offered, dropped and error counts summed by index,
// latency samples pooled, request totals added. nil results (failed
// replicas) are skipped. Invariants preserved (see the property
// test): Total, Errors, Dropped, Served and every per-bucket field
// are the exact sums of the inputs'.
func Merge(results ...*Result) *Result {
	out := &Result{}
	maxBuckets := 0
	for _, r := range results {
		if r != nil && len(r.Buckets) > maxBuckets {
			maxBuckets = len(r.Buckets)
		}
	}
	sums := make([]Bucket, maxBuckets)
	for _, r := range results {
		if r == nil {
			continue
		}
		for _, b := range r.Buckets {
			s := &sums[b.Index]
			s.Responses += b.Responses
			s.Offered += b.Offered
			s.Dropped += b.Dropped
			s.Errors += b.Errors
		}
		for _, v := range r.Latency.samples {
			out.Latency.Add(v)
		}
		out.Errors += r.Errors
		out.Dropped += r.Dropped
		out.Total += r.Total
		for _, f := range r.Failures {
			if len(out.Failures) < 4 {
				out.Failures = append(out.Failures, f)
			}
		}
	}
	for i, s := range sums {
		s.Index = i
		out.Buckets = append(out.Buckets, s)
	}
	return out
}
