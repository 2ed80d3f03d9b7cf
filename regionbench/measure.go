package main

import (
	"math"
	"slices"
	"time"
)

// samples is a fixed-capacity sample buffer. Once full it overwrites its
// oldest entries, so a long run keeps its most recent cap samples and never
// allocates after construction. A buffer of capacity 0 takes no samples.
type samples struct {
	v []float64
	n int // samples ever added
}

func newSamples(capacity int) *samples {
	return &samples{v: make([]float64, capacity)}
}

func (s *samples) add(x float64) {
	if len(s.v) == 0 {
		return
	}
	s.v[s.n%len(s.v)] = x
	s.n++
}

// sorted returns a sorted copy of the retained samples.
func (s *samples) sorted() []float64 {
	out := slices.Clone(s.v[:min(s.n, len(s.v))])
	slices.Sort(out)
	return out
}

// since returns a sorted copy of the samples added after the first i, or
// nil when some of them were overwritten.
func (s *samples) since(i int) []float64 {
	if s.n > len(s.v) {
		return nil
	}
	out := slices.Clone(s.v[i:s.n])
	slices.Sort(out)
	return out
}

func (s *samples) reset() { s.n = 0 }

// percentiles the benchmark reports, in hundredths of a percent.
var percentileLadder = []int{5000, 9000, 9900, 9990, 9999}

// rank returns the 1-based nearest rank of percentile q (hundredths of a
// percent) among n samples.
func rank(n, q int) int {
	r := (n*q + 9999) / 10000
	return max(r, 1)
}

// percentile returns the q-th percentile (hundredths of a percent) of sorted
// by nearest rank, or NaN when sorted is empty.
func percentile(sorted []float64, q int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)-1]
}

// highestSupported returns the highest percentile of the ladder that has at
// least ten samples beyond it among n samples, or 0 when even the median
// lacks them.
func highestSupported(n int) int {
	best := 0
	for _, q := range percentileLadder {
		if n-rank(n, q) >= 10 {
			best = q
		}
	}
	return best
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return percentile(s, 5000)
}

// orderCheck audits one region run's releases as the Sink sees them.
//
// Unkeyed streams must release every sequence number exactly once, in
// strictly increasing, gapless order. Keyed streams with a combiner release
// absorbed sequence numbers silently, so the sink legally sees gaps; there
// the releases must be strictly increasing and the totals are checked by
// finish. Each tuple released out of order or twice counts as one failure,
// and so does each sequence number skipped over or never released.
type orderCheck struct {
	gapsAllowed bool
	next        uint64 // one past the highest sequence number released
	released    uint64
	bad         uint64 // releases that were duplicates or out of order
	missing     uint64 // sequence numbers skipped in a gapless stream
	sum         uint64 // keyed: sum of the released unit values
}

func (c *orderCheck) observe(seq uint64) {
	c.released++
	switch {
	case seq == c.next:
		c.next++
	case seq > c.next:
		if !c.gapsAllowed {
			c.missing += seq - c.next
		}
		c.next = seq + 1
	default:
		c.bad++
	}
}

// finish returns the number of failed tuples of an n-tuple stream. absorbed
// is the region's CombinedReleased count; a gapless stream must have none.
func (c *orderCheck) finish(n, absorbed uint64) uint64 {
	failed := c.bad + c.missing
	if c.gapsAllowed {
		// Released plus absorbed must cover the stream, and the released
		// carriers' unit values must add up to its length.
		failed += absDiff(c.released+absorbed, n) + absDiff(c.sum, n)
	} else {
		if c.next < n {
			failed += n - c.next
		}
		failed += absorbed
	}
	return min(failed, n)
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// pacer releases tuples on an open-loop schedule: tuple seq is due at
// seq/rate after the first tuple, however fast the region drains them. It
// only ever sleeps — a spinning pacer would burn the CPU the region under
// test needs — so a sleep that overshoots makes the following tuples late,
// and the run times latency from each tuple's due time, which charges that
// lateness to the result.
type pacer struct {
	periodNS float64
	start    time.Time
	now      func(start time.Time) time.Duration
	sleep    func(time.Duration)
}

func newPacer(rate float64) *pacer {
	return &pacer{periodNS: 1e9 / rate, now: time.Since, sleep: time.Sleep}
}

// due returns seq's scheduled send time, relative to the schedule start.
func (p *pacer) due(seq uint64) time.Duration {
	return time.Duration(float64(seq) * p.periodNS)
}

// wait blocks until seq is due and returns when it returned relative to the
// schedule start and how long it slept. The first call starts the
// schedule.
func (p *pacer) wait(seq uint64) (at, slept time.Duration) {
	if p.start.IsZero() {
		p.start = time.Now()
	}
	due := p.due(seq)
	for {
		now := p.now(p.start)
		if now >= due {
			return now, slept
		}
		p.sleep(due - now)
		slept += due - now
	}
}

// oracle describes the capacity of a set of workers with the given service
// times, which is what perfect weights (the paper's Oracle*) reach, and
// what round-robin reaches: equal shares, so the slowest worker gates the
// rest.
type oracle struct {
	shares []float64 // tuples/s share each worker gets under perfect weights
	rate   float64   // tuples/s under perfect weights
	rr     float64   // tuples/s under round-robin
}

func newOracle(service []time.Duration) oracle {
	o := oracle{shares: make([]float64, len(service))}
	slowest := time.Duration(0)
	for j, s := range service {
		o.shares[j] = 1 / s.Seconds()
		o.rate += o.shares[j]
		slowest = max(slowest, s)
	}
	for j := range o.shares {
		o.shares[j] /= o.rate
	}
	o.rr = float64(len(service)) / slowest.Seconds()
	return o
}

// streamRate is the average rate over a stream split into equal halves run
// at rates a and b: the halves take time in inverse proportion to rate.
func streamRate(a, b float64) float64 {
	return 2 / (1/a + 1/b)
}

// weightError is the share of tuples the weights send to the wrong worker:
// the total variation distance between the weight vector, normalised, and
// the oracle shares.
func weightError(weights []int, shares []float64) float64 {
	total := 0
	for _, w := range weights {
		total += w
	}
	if total == 0 || len(weights) != len(shares) {
		return math.NaN()
	}
	d := 0.0
	for j, w := range weights {
		d += math.Abs(float64(w)/float64(total) - shares[j])
	}
	return d / 2
}
