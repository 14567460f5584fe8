// Package loadgen is the host-side workload driver — the
// redis-benchmark / serverless-loader analogue the paper uses to
// measure Figure 8. It fires request mixes at a guest server, tracks
// per-bucket throughput on the machine's deterministic virtual clock,
// and records request latency (in guest instructions) as a histogram
// with percentile queries.
//
// Two drivers share the accounting types:
//
//   - Driver is closed-loop: one request in flight, the next fired as
//     soon as the previous resolves. It measures the guest's service
//     capacity (Figure 8's shape).
//   - OpenDriver (openloop.go) is open-loop: requests fire at the
//     vticks a Schedule (schedule.go) dictates, whether or not earlier
//     responses are outstanding, with a bounded in-flight window and
//     explicit drop accounting. It measures what traffic experiences —
//     queueing delay, drops and downtime included — which is the only
//     honest way to observe a rewrite under sustained load.
package loadgen

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/dynacut/dynacut/internal/kernel"
	"github.com/dynacut/dynacut/internal/obs"
)

// Request is one weighted entry of a workload mix.
type Request struct {
	Payload string
	Weight  int
}

// Mix is a deterministic request mix: requests are interleaved
// proportionally to weight (no randomness, so runs are reproducible).
type Mix struct {
	entries []Request
	seq     []int // expanded weighted round-robin schedule
	next    int
}

// NewMix builds a mix. Weights ≤ 0 default to 1.
func NewMix(reqs ...Request) *Mix {
	m := &Mix{entries: reqs}
	for i, r := range reqs {
		w := r.Weight
		if w <= 0 {
			w = 1
		}
		for j := 0; j < w; j++ {
			m.seq = append(m.seq, i)
		}
	}
	return m
}

// Clone returns an independent mix with its own schedule cursor —
// concurrent drivers must not share one cursor.
func (m *Mix) Clone() *Mix {
	if m == nil {
		return nil
	}
	return NewMix(m.entries...)
}

// Next returns the next request payload in the schedule.
func (m *Mix) Next() string {
	if len(m.seq) == 0 {
		return ""
	}
	r := m.entries[m.seq[m.next%len(m.seq)]]
	m.next++
	return r.Payload
}

// Histogram tracks request latencies in guest instructions.
type Histogram struct {
	samples []uint64
	sorted  bool
}

// Add records one latency sample.
func (h *Histogram) Add(v uint64) {
	h.samples = append(h.samples, v)
	h.sorted = false
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Percentile returns the p-th percentile (0 < p <= 100) by the
// ceiling nearest-rank method: the smallest sample v such that at
// least ceil(p/100 * N) samples are <= v. The previous truncating
// formula returned rank floor(p/100*N) — e.g. p99 of 50 samples gave
// rank 49 instead of 50 — systematically underreporting tails.
func (h *Histogram) Percentile(p float64) uint64 {
	if len(h.samples) == 0 || p <= 0 || p > 100 {
		return 0
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	rank := int(math.Ceil(p / 100 * float64(len(h.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(h.samples) {
		rank = len(h.samples)
	}
	return h.samples[rank-1]
}

// Mean returns the average latency.
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	var sum uint64
	for _, v := range h.samples {
		sum += v
	}
	return float64(sum) / float64(len(h.samples))
}

// Bucket is one throughput sample on the virtual-time axis: the
// window [Index*BucketTicks, (Index+1)*BucketTicks) from the run's
// start. Responses counts completions in the window; for the
// open-loop driver, Offered counts requests the schedule fired in the
// window, Dropped the arrivals shed because the in-flight window was
// full, and Errors the requests that resolved as failures there. The
// closed-loop driver fills Offered and Errors too (Offered = attempts
// begun in the window) and never drops.
type Bucket struct {
	Index     int
	Responses int
	Offered   int
	Dropped   int
	Errors    int
}

// Result aggregates one driver run.
type Result struct {
	Buckets []Bucket
	Latency Histogram
	// Errors counts requests that resolved as failures (no response,
	// truncated response, timeout, dial failure). Dropped counts
	// open-loop arrivals that were never fired because the in-flight
	// window was full. Total counts every scheduled/attempted request:
	// Total = completions + Errors + Dropped.
	Errors   int
	Dropped  int
	Total    int
	Failures []string // first few failure descriptions
}

// Served counts completed requests (latency samples).
func (r *Result) Served() int { return r.Latency.Count() }

// bucketAt returns the bucket covering offset vticks from the run's
// start, growing the slice as needed (dense, Index == position).
func (r *Result) bucketAt(offset, bucketTicks uint64) *Bucket {
	i := int(offset / bucketTicks)
	for len(r.Buckets) <= i {
		r.Buckets = append(r.Buckets, Bucket{Index: len(r.Buckets)})
	}
	return &r.Buckets[i]
}

// Driver fires a mix at a guest port on one machine, closed-loop: the
// next request is sent as soon as the previous one resolves.
type Driver struct {
	Machine *kernel.Machine
	Port    uint16
	Mix     *Mix
	// BucketTicks sizes one throughput bucket in guest instructions.
	BucketTicks uint64
	// RequestBudget bounds the instructions spent waiting for one
	// response before it is counted as an error. A failed request is
	// charged its full unused budget — the virtual time a real client
	// would burn before timing out — so bucket windows stay aligned no
	// matter how cheaply a request fails.
	RequestBudget uint64
	// Observer, when non-nil, receives per-request trace points
	// (loadgen.request / loadgen.error), so a run lands on the same
	// mergeable timeline as the rewrite pipeline's own spans.
	Observer *obs.Observer
	// Hook, when set, runs before each bucket (e.g. to trigger a
	// rewrite at a specific point in the timeline).
	Hook func(bucket int) error
}

// Driver errors.
var (
	ErrNoMix = errors.New("loadgen: driver needs a mix")
	// ErrTruncated marks a response whose connection was still open and
	// still mid-write when the request budget ran out; it is the
	// exchange's own kernel.ErrTruncatedResponse.
	ErrTruncated = kernel.ErrTruncatedResponse
)

// Run drives the workload for the given number of buckets.
func (d *Driver) Run(buckets int) (*Result, error) {
	if d.Mix == nil {
		return nil, ErrNoMix
	}
	if d.BucketTicks == 0 {
		d.BucketTicks = 100_000
	}
	if d.RequestBudget == 0 {
		d.RequestBudget = 2_000_000
	}
	res := &Result{}
	start := d.Machine.Clock()
	for b := 0; b < buckets; b++ {
		if d.Hook != nil {
			if err := d.Hook(b); err != nil {
				return nil, fmt.Errorf("bucket %d hook: %w", b, err)
			}
		}
		end := start + uint64(b+1)*d.BucketTicks
		count, offered, failed := 0, 0, 0
		for d.Machine.Clock() < end {
			t0 := d.Machine.Clock()
			lat, err := d.one()
			res.Total++
			offered++
			if err != nil {
				res.Errors++
				failed++
				if len(res.Failures) < 4 {
					res.Failures = append(res.Failures, err.Error())
				}
				if d.Observer != nil {
					d.Observer.Point("loadgen.error", int64(b))
				}
				// Charge the failed request the rest of its budget: a
				// cheap failure (refused dial, instant close) must not
				// let the loop spin, and the bucket must keep its
				// window instead of breaking out mid-bucket and letting
				// the next bucket silently absorb the remaining ticks.
				if spent := d.Machine.Clock() - t0; spent < d.RequestBudget {
					d.Machine.AdvanceClock(d.RequestBudget - spent)
				}
				continue
			}
			res.Latency.Add(lat)
			count++
			if d.Observer != nil {
				d.Observer.Point("loadgen.request", int64(lat))
			}
		}
		res.Buckets = append(res.Buckets, Bucket{
			Index: b, Responses: count, Offered: offered, Errors: failed,
		})
	}
	return res, nil
}

// one issues a single request and returns its latency in guest
// instructions, measured to the last response byte of a full exchange
// (Machine.Exchange). A guest that goes idle without answering fails
// the request.
func (d *Driver) one() (uint64, error) {
	payload := d.Mix.Next()
	t0 := d.Machine.Clock()
	resp, lastByte, err := d.Machine.Exchange(d.Port, []byte(payload), d.RequestBudget)
	if err == nil && len(resp) == 0 {
		err = kernel.ErrNoResponse
	}
	if err != nil {
		return 0, fmt.Errorf("request %q: %w", payload, err)
	}
	return lastByte - t0, nil
}
