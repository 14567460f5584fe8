package main

import (
	"math"
	"sort"
	"time"
)

// minBeyondTail is how many samples must lie above a tail percentile
// before it is reported: fewer, and the figure is one or two outliers.
const minBeyondTail = 10

// rank returns the 1-based nearest-rank (ceil) position of percentile
// p (0 < p <= 100) among n sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailOK reports whether n samples leave at least minBeyondTail
// samples above percentile p.
func tailOK(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minBeyondTail
}

// percentile returns the nearest-rank percentile p of xs (xs is not
// modified). It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median is percentile 50.
func median(xs []float64) float64 { return percentile(xs, 50) }

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tally counts checked operations and the ones that failed their
// correctness check.
type tally struct {
	attempted int
	failed    int
}

// check records one checked operation.
func (t *tally) check(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// add folds o into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// failedShare is the share of checked operations that failed.
func (t tally) failedShare() float64 {
	return ratio(float64(t.failed), float64(t.attempted))
}
