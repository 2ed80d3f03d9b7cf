package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"streambalance/internal/core"
	rt "streambalance/internal/runtime"
	"streambalance/internal/schedule"
	"streambalance/internal/sim"
	"streambalance/internal/transport"
)

// workload is one region configuration and input stream. README.md says
// why each exists and what each should and should not be sensitive to.
type workload struct {
	name      string
	transport rt.TransportKind
	// service is each worker's ServiceOperator time; nil means Identity
	// workers.
	service []time.Duration
	workers int // when service is nil
	// shift is the last worker's service time from the middle of the
	// stream on (0: no shift).
	shift time.Duration
	// rate is the open-loop input rate in tuples/s; 0 is a closed loop.
	rate  float64
	keyed bool
	// round is the number of tuples per region run; a measurement repeats
	// runs until its time is spent.
	round uint64
	// stride is the 1-in-stride sequence-number sampling for latency and
	// spans (a power of two).
	stride   uint64
	balancer bool
	// bareSink replaces the checking sink with one that only returns, to
	// measure what the checks cost (BenchmarkSinkCost).
	bareSink bool
}

const (
	batchSize      = 32
	sampleInterval = 50 * time.Millisecond
	payloadBytes   = 64
	zipfKeys       = 10_000
	zipfAlpha      = 1.5
	// probeRate is the open-loop rate, in tuples/s, at which closed-loop
	// workloads measure latency: below the capacity of every one of them,
	// so no backlog grows.
	probeRate = 20_000
	// probeShare is the share of the measurement that latency probe takes.
	probeShare = 0.2
	// warmShare is the leading share of each run left out of its rates and
	// latencies: the rings fill and the balancer takes its first samples.
	warmShare = 10
)

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

var workloads = []*workload{
	{name: "inproc-saturate", transport: rt.TransportInproc, workers: 4,
		round: 1 << 21, stride: 1 << 9, balancer: true},
	{name: "tcp-paced", transport: rt.TransportTCP, workers: 4, rate: 100_000,
		round: 25_000, stride: 1 << 3, balancer: true},
	{name: "hetero-shift", transport: rt.TransportInproc,
		service: []time.Duration{us(25), us(25), us(50), us(100)}, shift: us(25),
		round: 200_000, stride: 1 << 4, balancer: true},
	{name: "keyed-skew", transport: rt.TransportInproc,
		service: []time.Duration{us(20), us(20), us(20), us(20), us(20), us(20), us(20), us(20)},
		keyed:   true, round: 200_000, stride: 1 << 4},
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) fanOut() int {
	if w.service != nil {
		return len(w.service)
	}
	return w.workers
}

// oracles returns the capacity with perfect weights and with round-robin
// before and after the shift (equal when there is none). Identity workers
// have no service time to weigh; their oracle is even shares.
func (w *workload) oracles() (before, after oracle) {
	if w.service == nil {
		even := oracle{shares: evenShares(w.workers)}
		return even, even
	}
	before = newOracle(w.service)
	if w.shift == 0 {
		return before, before
	}
	shifted := append([]time.Duration(nil), w.service...)
	shifted[len(shifted)-1] = w.shift
	return before, newOracle(shifted)
}

// buffers are the measurement's preallocated arrays, shared by every run of
// one measurement so that the timed part allocates nothing for its own
// bookkeeping.
type buffers struct {
	lat   *samples // open loop: release latency from the due time, ms
	late  *samples // open loop: generator lateness, ms
	arena []byte   // keyed payload slots
}

const (
	sampleCap   = 1 << 16
	arenaSlots  = 1 << 17 // > tuples a keyed region holds in flight
	keyedBytes  = 16      // unit value, then the sequence number
	arenaMask   = arenaSlots - 1
	msPerSecond = 1e3
)

// newBuffers allocates the buffers of a measurement of w lasting budget.
// An open loop's sample buffers hold every sample the budget can produce,
// so that its latency percentiles pool all of its runs. A closed loop, and
// a budget of 0 (a set-up probe), take no samples.
func newBuffers(w *workload, budget time.Duration) *buffers {
	n := 0
	if w.rate > 0 && budget > 0 {
		n = int(w.rate*budget.Seconds())/int(w.stride) + sampleCap
	}
	b := &buffers{lat: newSamples(n), late: newSamples(n)}
	if w.keyed {
		b.arena = make([]byte, arenaSlots*keyedBytes)
		for i := 0; i < arenaSlots; i++ {
			b.arena[i*keyedBytes] = 1 // little-endian unit value
		}
	}
	return b
}

// run is one region execution over a stream of n tuples.
type run struct {
	w      *workload
	n      uint64
	mask   uint64
	region *rt.Region
	chk    orderCheck
	svc    []*rt.ServiceOperator
	pace   *pacer
	start  time.Time
	b      *buffers
	tr     *tracer
	mark   uint64 // first sequence number past the warm-up share
	// The steady part runs from the first release at or past mark (A) to
	// the last sampled release (B).
	haveA      bool
	seqA, seqB uint64
	tA, tB     time.Duration
	res        rt.RegionResult
	err        error
}

// newRun generates the inputs for one run of w and builds its region; this
// is the set-up the setup_s metric times. tr, when set, instruments every
// public boundary of the region.
func newRun(w *workload, seed int64, n uint64, b *buffers, tr *tracer) (*run, error) {
	r := &run{w: w, n: n, mask: w.stride - 1, b: b, tr: tr, mark: n / warmShare}
	r.chk.gapsAllowed = w.keyed
	if w.rate > 0 {
		r.pace = newPacer(w.rate)
	}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]rt.Operator, w.fanOut())
	for j := range ops {
		if w.service == nil {
			ops[j] = rt.Identity()
			continue
		}
		op := rt.NewServiceOperator(w.service[j])
		r.svc = append(r.svc, op)
		ops[j] = op
	}
	cfg := rt.RegionConfig{
		Transport:      w.transport,
		Operators:      ops,
		BatchSize:      batchSize,
		SampleInterval: sampleInterval,
		Sink:           r.sink,
	}
	if w.balancer {
		bal, err := core.NewBalancer(core.Config{Connections: len(ops), DecayEnabled: true})
		if err != nil {
			return nil, err
		}
		cfg.Balancer = bal
	}
	if w.keyed {
		keys := sim.NewZipfStream(zipfKeys, zipfAlpha, rng.Int63())
		router, err := schedule.NewPKGRouter(len(ops))
		if err != nil {
			return nil, err
		}
		cfg.Router = router
		cfg.Combiner = rt.SumCombiner()
		cfg.KeyedSource = func(seq uint64) (uint64, []byte, bool) {
			payload, ok := r.source(seq)
			if !ok {
				return 0, nil, false
			}
			return keys.Key(seq), payload, true
		}
	} else {
		payload := make([]byte, payloadBytes)
		rng.Read(payload)
		cfg.Source = func(seq uint64) ([]byte, bool) {
			if seq >= r.n {
				return nil, false
			}
			r.onSend(seq)
			return payload, true
		}
	}
	if w.bareSink {
		cfg.Sink = func(transport.Tuple, int) {}
	}
	if tr != nil {
		tr.instrument(r, &cfg)
	}
	region, err := rt.NewRegion(cfg)
	if err != nil {
		return nil, err
	}
	r.region = region
	return r, nil
}

// source is the keyed stream's payload: a slot of the arena holding the
// unit value and, for linking combiner spans, the sequence number.
func (r *run) source(seq uint64) ([]byte, bool) {
	if seq >= r.n {
		return nil, false
	}
	off := int(seq&arenaMask) * keyedBytes
	slot := r.b.arena[off : off+keyedBytes : off+keyedBytes]
	binary.LittleEndian.PutUint64(slot[8:], seq)
	r.onSend(seq)
	return slot, true
}

// onSend is the per-tuple work every source does besides producing the
// payload: pace an open loop and shift the load.
func (r *run) onSend(seq uint64) {
	if r.pace != nil {
		at, slept := r.pace.wait(seq)
		if seq&r.mask == 0 && seq >= r.mark {
			r.b.late.add(float64(at-r.pace.due(seq)) / float64(time.Millisecond))
		}
		if r.tr != nil {
			r.tr.slept += slept
		}
	}
	if r.w.shift > 0 && seq == r.n/2 {
		r.svc[len(r.svc)-1].SetService(r.w.shift)
		if r.tr != nil {
			r.tr.shiftAt = time.Since(r.start)
		}
	}
}

func (r *run) sink(t transport.Tuple, _ int) {
	r.chk.observe(t.Seq)
	if r.w.keyed {
		r.chk.sum += binary.LittleEndian.Uint64(t.Payload)
	}
	if r.tr != nil {
		r.tr.sink(t.Seq)
	}
	if !r.haveA && t.Seq >= r.mark {
		r.haveA, r.seqA, r.tA = true, t.Seq, time.Since(r.start)
	}
	if t.Seq&r.mask != 0 {
		return
	}
	now := time.Since(r.start)
	r.seqB, r.tB = t.Seq, now
	if t.Seq < r.mark || r.pace == nil {
		return
	}
	// Open loop: from the due time on the schedule, whose start is the
	// first source call. A closed loop's latency would only read how full
	// its buffers are.
	sent := r.pace.due(t.Seq) + r.pace.start.Sub(r.start)
	r.b.lat.add(float64(now-sent) / float64(time.Millisecond))
}

// execute runs the region to completion and returns the number of failed
// tuples.
func (r *run) execute() uint64 {
	r.start = time.Now()
	r.res, r.err = r.region.Run()
	if r.err != nil {
		return r.n
	}
	failed := r.chk.finish(r.n, r.res.CombinedReleased)
	if r.res.Released != r.chk.released || !r.res.OrderPreserved && !r.w.keyed ||
		r.w.keyed && r.res.CombinedReleased != r.res.CombinerHits {
		failed = max(failed, 1)
	}
	return failed
}

// rate is the steady-part throughput: sequence numbers released or
// absorbed per second between the first release past the warm-up and the
// last sampled release.
func (r *run) rate() float64 {
	if !r.haveA || r.tB <= r.tA || r.seqB <= r.seqA {
		return 0
	}
	return float64(r.seqB-r.seqA) / (r.tB - r.tA).Seconds()
}

// latencyProbe is w's region on Identity workers, fed an open loop at
// probeRate, in quarter-second runs. A sleeping worker would put its 1 ms
// service sleeps and their overshoot into the latency: at a low rate, that
// reads the host's timer wake-ups rather than the region.
func (w *workload) latencyProbe() *workload {
	p := *w
	p.name += "/latency-probe"
	p.workers = w.fanOut()
	p.service = nil
	p.shift = 0
	p.rate = probeRate
	p.round = probeRate / 4
	p.stride = 1
	return &p
}

// oneWorker is w's job on a single worker, without the shift: the
// single-threaded reference the region's fan-out is measured against.
func (w *workload) oneWorker() *workload {
	one := *w
	one.name += "/one-worker"
	one.round = w.round / uint64(w.fanOut())
	one.shift = 0
	if w.service != nil {
		one.service = w.service[:1]
	} else {
		one.workers = 1
	}
	return &one
}
