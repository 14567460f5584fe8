package loadgen

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// A Schedule dictates when requests arrive on the virtual-clock axis —
// the invocation side of a serverless-loader-style generator. All
// schedules are deterministic: the same parameters (and seed, for the
// stochastic ones) materialize byte-identical arrival sequences every
// time, so a load run is exactly reproducible and two replicas given
// the same schedule see the same traffic.
type Schedule interface {
	// Arrivals materializes the arrival sequence for a run of horizon
	// vticks: offsets in [0, horizon), nondecreasing.
	Arrivals(horizon uint64) []Arrival
}

// Arrival is one scheduled request.
type Arrival struct {
	// At is the arrival offset in vticks from the run's start.
	At uint64
	// Payload overrides the driver's Mix for this request when non-""
	// (trace-driven schedules carry per-slot payloads — the
	// invocation+duration mix of a real trace).
	Payload string
}

// Schedule errors.
var (
	ErrBadTrace = errors.New("loadgen: malformed trace CSV")
)

// --- constant rate ---------------------------------------------------------

// ConstantSchedule fires one request every Interval vticks — the
// fixed-RPS baseline.
type ConstantSchedule struct {
	// Interval is the inter-arrival gap in vticks (0 = 10_000).
	Interval uint64
}

// NewConstant builds a constant-rate schedule with the given
// inter-arrival gap in vticks.
func NewConstant(interval uint64) *ConstantSchedule {
	return &ConstantSchedule{Interval: interval}
}

func (s *ConstantSchedule) interval() uint64 {
	if s.Interval == 0 {
		return 10_000
	}
	return s.Interval
}

func (s *ConstantSchedule) Arrivals(horizon uint64) []Arrival {
	iv := s.interval()
	out := make([]Arrival, 0, horizon/iv+1)
	for at := uint64(0); at < horizon; at += iv {
		out = append(out, Arrival{At: at})
	}
	return out
}

// --- step ramp (stress mode) -----------------------------------------------

// StepSchedule is the stress mode of the serverless loaders: the
// request rate starts at Start requests per slot and climbs by Step
// every SlotTicks, arrivals equidistant within each slot. It ramps
// until the horizon ends.
type StepSchedule struct {
	Start     int    // requests in the first slot (≤0 = 1)
	Step      int    // per-slot increment (may be 0 or negative)
	SlotTicks uint64 // slot length in vticks (0 = 100_000)
}

// NewStepRamp builds a stress-mode ramp: start requests in the first
// SlotTicks-sized slot, step more in each following slot.
func NewStepRamp(start, step int, slotTicks uint64) *StepSchedule {
	return &StepSchedule{Start: start, Step: step, SlotTicks: slotTicks}
}

func (s *StepSchedule) start() int {
	if s.Start <= 0 {
		return 1
	}
	return s.Start
}

func (s *StepSchedule) slot() uint64 {
	if s.SlotTicks == 0 {
		return 100_000
	}
	return s.SlotTicks
}

func (s *StepSchedule) Arrivals(horizon uint64) []Arrival {
	slot := s.slot()
	var out []Arrival
	rate := s.start()
	for lo := uint64(0); lo < horizon; lo += slot {
		n := rate
		rate += s.Step
		if n <= 0 {
			continue
		}
		out = append(out, equidistant(lo, slot, n, horizon)...)
	}
	return out
}

// equidistant spaces n arrivals evenly over [lo, lo+slot), clipped to
// the horizon.
func equidistant(lo, slot uint64, n int, horizon uint64) []Arrival {
	out := make([]Arrival, 0, n)
	for i := 0; i < n; i++ {
		at := lo + uint64(i)*slot/uint64(n)
		if at >= horizon {
			break
		}
		out = append(out, Arrival{At: at})
	}
	return out
}

// --- Poisson ---------------------------------------------------------------

// PoissonSchedule draws exponential inter-arrival gaps from a seeded
// splitmix64 PRNG — the open-loop arrival process of the serverless
// loaders' "exponential" IAT mode. Same seed, same sequence, always.
type PoissonSchedule struct {
	// MeanInterval is the mean inter-arrival gap in vticks (0 = 10_000).
	MeanInterval uint64
	// Seed selects the deterministic arrival sequence.
	Seed int64
}

// NewPoisson builds a seeded Poisson schedule with the given mean
// inter-arrival gap in vticks.
func NewPoisson(meanInterval uint64, seed int64) *PoissonSchedule {
	return &PoissonSchedule{MeanInterval: meanInterval, Seed: seed}
}

func (s *PoissonSchedule) mean() uint64 {
	if s.MeanInterval == 0 {
		return 10_000
	}
	return s.MeanInterval
}

func (s *PoissonSchedule) Arrivals(horizon uint64) []Arrival {
	mean := float64(s.mean())
	rng := splitmix64(uint64(s.Seed))
	var out []Arrival
	at := float64(0)
	for {
		// Exponential inter-arrival via inverse transform; u is kept
		// away from 0 so the log stays finite.
		u := rng.float()
		at += -mean * math.Log(1-u)
		if uint64(at) >= horizon {
			return out
		}
		out = append(out, Arrival{At: uint64(at)})
	}
}

// splitmix64 is the PRNG behind the seeded schedules: tiny, fast and
// owned by this package, so arrival sequences cannot drift with a Go
// release the way math/rand streams could.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (s *splitmix64) float() float64 {
	return float64(s.next()>>11) / float64(1<<53)
}

// --- CSV trace -------------------------------------------------------------

// TraceSchedule replays a recorded invocation trace: each CSV row is
// one SlotTicks-sized slot giving an invocation count and, optionally,
// the payload those invocations carry (the duration mix — different
// payloads exercise differently-priced guest paths). Invocations are
// equidistant within their slot. Past the last row the trace is
// silent.
type TraceSchedule struct {
	SlotTicks uint64
	slots     []traceSlot
}

type traceSlot struct {
	invocations int
	payload     string
}

// ParseTraceCSV parses an invocation trace. Each non-empty line is
// `invocations[,payload]`; a first line whose count column is not a
// number is treated as a header and skipped. slotTicks sizes the slot
// each row covers (0 = 100_000).
func ParseTraceCSV(data string, slotTicks uint64) (*TraceSchedule, error) {
	if slotTicks == 0 {
		slotTicks = 100_000
	}
	ts := &TraceSchedule{SlotTicks: slotTicks}
	for i, line := range strings.Split(data, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		countCol, payload, _ := strings.Cut(line, ",")
		n, err := strconv.Atoi(strings.TrimSpace(countCol))
		if err != nil {
			if i == 0 && len(ts.slots) == 0 {
				continue // header row
			}
			return nil, fmt.Errorf("%w: line %d: bad invocation count %q", ErrBadTrace, i+1, countCol)
		}
		if n < 0 {
			return nil, fmt.Errorf("%w: line %d: negative invocation count %d", ErrBadTrace, i+1, n)
		}
		ts.slots = append(ts.slots, traceSlot{invocations: n, payload: strings.TrimSpace(payload)})
	}
	if len(ts.slots) == 0 {
		return nil, fmt.Errorf("%w: no slots", ErrBadTrace)
	}
	return ts, nil
}

func (s *TraceSchedule) Arrivals(horizon uint64) []Arrival {
	var out []Arrival
	for i, slot := range s.slots {
		lo := uint64(i) * s.SlotTicks
		if lo >= horizon {
			break
		}
		arr := equidistant(lo, s.SlotTicks, slot.invocations, horizon)
		for j := range arr {
			arr[j].Payload = slot.payload
		}
		out = append(out, arr...)
	}
	return out
}
