package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"streambalance/internal/core"
	rt "streambalance/internal/runtime"
	"streambalance/internal/schedule"
	"streambalance/internal/transport"
)

// convergeTol is the weight error at which the balancer counts as
// converged: at most this share of tuples goes to the wrong worker.
const convergeTol = 0.1

const (
	// maxTicks bounds the controller ticks one run records.
	maxTicks = 4096
	// maxSpanTuples bounds the tuples whose spans are written out.
	maxSpanTuples = 4096
)

// span holds one sampled tuple's boundary times, relative to its run's
// start. Zero means the boundary was not seen (an absorbed tuple never
// reaches the sink; only keyed tuples are routed or combined).
type span struct {
	genStart, genEnd     time.Duration
	routeStart, routeEnd time.Duration
	procIn, procOut      time.Duration
	combStart, combEnd   time.Duration
	sink                 time.Duration
	worker               int32
	carrier              uint64 // combiner: the sequence number absorbing this one
}

type tick struct {
	at      time.Duration
	rates   []float64
	weights []int
}

// tracer times every public boundary of a region: Source, KeyRouter.Route,
// Operator.Process, Combiner.Combine, the Sink and OnSample. Sampled tuples
// get spans linked by sequence number; every call adds to counters. One
// tracer serves the runs of one measurement in turn and pools their
// figures.
type tracer struct {
	w     *workload
	r     *run
	spans []span
	ops   []*tracedOp

	// Splitter goroutine: Source and Route.
	srcCalls   int64
	srcTime    time.Duration
	gapTime    time.Duration
	lastExit   time.Duration
	slept      time.Duration
	cur        uint64
	routeCalls int64
	routeTime  time.Duration
	shiftAt    time.Duration

	// Worker goroutines: Combine.
	combineCalls atomic.Int64
	combineNS    atomic.Int64

	// Merger goroutine: the sink.
	sinkSeen bool
	lastSink time.Duration
	maxStall time.Duration

	// Controller goroutine: OnSample.
	ticks  []tick
	nticks int

	agg traceAgg
}

// traceAgg pools the per-layer figures of a measurement's runs.
type traceAgg struct {
	runs                    int
	transportIn, mergerWait *samples
	stageNS, srcNS          float64 // sums over runs of per-run totals
	srcCalls                float64
	blocking, connTime      time.Duration
	sentSkew, keyImbalance  float64
	workerGap               time.Duration
	workerCalls             int64
	busy                    []time.Duration
	elapsed                 time.Duration
	combined, tuples        uint64
	hits, keyed             uint64
	weightErr               float64
	errTicks                int
	converge                []float64
	ticks                   int
	rebalance               time.Duration
	rebalances              int
	routeCalls              int64
	routeTime               time.Duration
	combineCalls, combineNS int64
	maxStall                time.Duration
}

func newTracer(w *workload) *tracer {
	tr := &tracer{
		w:     w,
		spans: make([]span, w.round/w.stride+1),
		ticks: make([]tick, maxTicks),
	}
	for i := range tr.ticks {
		tr.ticks[i].rates = make([]float64, w.fanOut())
		tr.ticks[i].weights = make([]int, w.fanOut())
	}
	tr.agg.transportIn = newSamples(sampleCap)
	tr.agg.mergerWait = newSamples(sampleCap)
	tr.agg.busy = make([]time.Duration, w.fanOut())
	return tr
}

func (tr *tracer) now() time.Duration { return time.Since(tr.r.start) }

func (tr *tracer) sampled(seq uint64) *span {
	if seq&(tr.w.stride-1) != 0 || seq >= tr.r.n {
		return nil
	}
	return &tr.spans[seq/tr.w.stride]
}

// instrument resets the per-run state and wraps cfg's boundaries for r.
func (tr *tracer) instrument(r *run, cfg *rt.RegionConfig) {
	tr.r = r
	clear(tr.spans)
	tr.srcCalls, tr.srcTime, tr.gapTime, tr.lastExit, tr.slept = 0, 0, 0, 0, 0
	tr.routeCalls, tr.routeTime, tr.shiftAt = 0, 0, 0
	tr.combineCalls.Store(0)
	tr.combineNS.Store(0)
	tr.sinkSeen, tr.lastSink, tr.maxStall = false, 0, 0
	tr.nticks = 0

	tr.ops = tr.ops[:0]
	for j, op := range cfg.Operators {
		t := &tracedOp{inner: op, tr: tr, id: int32(j)}
		tr.ops = append(tr.ops, t)
		cfg.Operators[j] = t
	}
	if src := cfg.Source; src != nil {
		cfg.Source = func(seq uint64) ([]byte, bool) {
			in := tr.enterSource(seq)
			p, ok := src(seq)
			tr.exitSource(seq, in)
			return p, ok
		}
	}
	if src := cfg.KeyedSource; src != nil {
		cfg.KeyedSource = func(seq uint64) (uint64, []byte, bool) {
			in := tr.enterSource(seq)
			k, p, ok := src(seq)
			tr.exitSource(seq, in)
			return k, p, ok
		}
	}
	if cfg.Router != nil {
		cfg.Router = &tracedRouter{KeyRouter: cfg.Router, tr: tr}
	}
	if c := cfg.Combiner; c != nil {
		cfg.Combiner = rt.CombinerFunc(func(key uint64, acc, next []byte) []byte {
			in := tr.now()
			out := c.Combine(key, acc, next)
			end := tr.now()
			tr.combineCalls.Add(1)
			tr.combineNS.Add(int64(end - in))
			if sp := tr.sampled(binary.LittleEndian.Uint64(next[8:])); sp != nil {
				sp.combStart, sp.combEnd = in, end
				sp.carrier = binary.LittleEndian.Uint64(acc[8:])
			}
			return out
		})
	}
	cfg.OnSample = func(_ time.Duration, rates []float64, weights []int) {
		if tr.nticks == len(tr.ticks) || len(rates) != len(tr.ticks[0].rates) {
			return
		}
		t := &tr.ticks[tr.nticks]
		t.at = tr.now()
		copy(t.rates, rates)
		copy(t.weights, weights)
		tr.nticks++
	}
}

func (tr *tracer) enterSource(seq uint64) time.Duration {
	in := tr.now()
	if tr.srcCalls > 0 {
		tr.gapTime += in - tr.lastExit
	}
	tr.cur = seq
	if sp := tr.sampled(seq); sp != nil {
		sp.genStart = in
	}
	return in
}

func (tr *tracer) exitSource(seq uint64, in time.Duration) {
	out := tr.now()
	tr.srcCalls++
	tr.srcTime += out - in
	tr.lastExit = out
	if sp := tr.sampled(seq); sp != nil {
		sp.genEnd = out
	}
}

func (tr *tracer) sink(seq uint64) {
	now := tr.now()
	if tr.sinkSeen && seq >= tr.r.mark {
		tr.maxStall = max(tr.maxStall, now-tr.lastSink)
	}
	tr.sinkSeen, tr.lastSink = true, now
	if sp := tr.sampled(seq); sp != nil {
		sp.sink = now
	}
}

// tracedOp times one worker's Operator.Process calls.
type tracedOp struct {
	inner    rt.Operator
	tr       *tracer
	id       int32
	calls    int64
	busy     time.Duration
	gap      time.Duration
	lastExit time.Duration
}

func (o *tracedOp) Process(t transport.Tuple) transport.Tuple {
	in := o.tr.now()
	out := o.inner.Process(t)
	end := o.tr.now()
	if o.calls > 0 {
		o.gap += in - o.lastExit
	}
	o.calls++
	o.busy += end - in
	o.lastExit = end
	if sp := o.tr.sampled(t.Seq); sp != nil {
		sp.procIn, sp.procOut, sp.worker = in, end, o.id
	}
	return out
}

// tracedRouter times KeyRouter.Route. The splitter calls it right after
// Source on the same goroutine, so the tuple is the one Source last
// returned.
type tracedRouter struct {
	schedule.KeyRouter
	tr *tracer
}

func (t *tracedRouter) Route(key uint64) int {
	in := t.tr.now()
	c := t.KeyRouter.Route(key)
	end := t.tr.now()
	t.tr.routeCalls++
	t.tr.routeTime += end - in
	if sp := t.tr.sampled(t.tr.cur); sp != nil {
		sp.routeStart, sp.routeEnd = in, end
	}
	return c
}

// SetPenalties keeps the wrapped router load-aware.
func (t *tracedRouter) SetPenalties(p []float64) error {
	if la, ok := t.KeyRouter.(schedule.LoadAware); ok {
		return la.SetPenalties(p)
	}
	return nil
}

// collect folds a finished run into the pooled figures.
func (tr *tracer) collect(r *run) {
	a := &tr.agg
	res := r.res
	a.runs++
	for i := range tr.spans {
		sp := &tr.spans[i]
		if uint64(i)*tr.w.stride < r.mark || sp.genEnd == 0 || sp.procIn == 0 {
			continue
		}
		a.transportIn.add(float64(sp.procIn-sp.genEnd) / float64(time.Millisecond))
		if sp.sink != 0 {
			a.mergerWait.add(float64(sp.sink-sp.procOut) / float64(time.Millisecond))
		}
	}
	blocking := time.Duration(0)
	for _, b := range res.TotalBlocking {
		blocking += b
	}
	a.stageNS += float64(tr.gapTime - blocking)
	a.srcNS += float64(tr.srcTime - tr.slept)
	a.srcCalls += float64(tr.srcCalls)
	a.blocking += blocking
	a.connTime += res.Elapsed * time.Duration(len(res.TotalBlocking))
	a.sentSkew += maxOverMean(res.PerConnSent)
	a.keyImbalance += maxOverMean(res.KeyedSent)
	for j, o := range tr.ops {
		a.workerGap += o.gap
		a.workerCalls += o.calls
		a.busy[j] += o.busy
	}
	a.elapsed += res.Elapsed
	a.combined += res.CombinedReleased
	a.tuples += r.n
	if r.w.keyed {
		a.hits += res.CombinerHits
		a.keyed += r.n
	}
	a.routeCalls += tr.routeCalls
	a.routeTime += tr.routeTime
	a.combineCalls += tr.combineCalls.Load()
	a.combineNS += tr.combineNS.Load()
	a.maxStall = max(a.maxStall, tr.maxStall)

	before, after := r.w.oracles()
	from := time.Duration(0)
	if r.w.shift > 0 {
		from = tr.shiftAt
	}
	converged := -1.0
	for _, t := range tr.ticks[:tr.nticks] {
		shares := before.shares
		if r.w.shift > 0 && t.at >= tr.shiftAt {
			shares = after.shares
		}
		e := weightError(t.weights, shares)
		a.weightErr += e
		a.errTicks++
		if converged < 0 && t.at >= from && e <= convergeTol {
			converged = float64(t.at-from) / float64(time.Millisecond)
		}
	}
	if converged < 0 && tr.nticks > 0 {
		// Never converged: censor at the end of the run.
		converged = float64(tr.ticks[tr.nticks-1].at-from) / float64(time.Millisecond)
	}
	if converged >= 0 {
		a.converge = append(a.converge, converged)
	}
	a.ticks += tr.nticks
	tr.replay()
}

// replay feeds the run's recorded blocking rates through a fresh balancer,
// timing Observe and Rebalance as the controller calls them.
func (tr *tracer) replay() {
	if tr.nticks == 0 {
		return
	}
	bal, err := core.NewBalancer(core.Config{Connections: tr.w.fanOut(), DecayEnabled: true})
	if err != nil {
		return
	}
	start := time.Now()
	for _, t := range tr.ticks[:tr.nticks] {
		for j, rate := range t.rates {
			if err := bal.Observe(j, rate); err != nil {
				return
			}
		}
		if _, err := bal.Rebalance(); err != nil {
			return
		}
	}
	tr.agg.rebalance += time.Since(start)
	tr.agg.rebalances += tr.nticks
}

func evenShares(n int) []float64 {
	s := make([]float64, n)
	for j := range s {
		s[j] = 1 / float64(n)
	}
	return s
}

func maxOverMean(xs []int64) float64 {
	var sum, top int64
	for _, x := range xs {
		sum += x
		top = max(top, x)
	}
	if sum == 0 {
		return 0
	}
	return float64(top) * float64(len(xs)) / float64(sum)
}

// metrics returns the per-layer figures pooled over the traced runs.
func (tr *tracer) metrics(late *samples) map[string]metric {
	a := &tr.agg
	ti, mw, lt := a.transportIn.sorted(), a.mergerWait.sorted(), late.sorted()
	busyMin, busyMax := 1.0, 0.0
	for _, b := range a.busy {
		s := b.Seconds() / a.elapsed.Seconds()
		busyMin, busyMax = min(busyMin, s), max(busyMax, s)
	}
	return map[string]metric{
		"splitter.stage_ns_per_tuple": {a.stageNS / a.srcCalls, "ns"},
		"splitter.send_block_share":   {a.blocking.Seconds() / a.connTime.Seconds(), "ratio"},
		"splitter.conn_sent_skew":     {a.sentSkew / float64(a.runs), "ratio"},
		"transport.in_ms_p50":         {orZero(percentile(ti, 5000)), "ms"},
		"worker.gap_ns_per_tuple":     {float64(a.workerGap) / float64(a.workerCalls), "ns"},
		"worker.busy_share_min":       {busyMin, "ratio"},
		"worker.busy_share_max":       {busyMax, "ratio"},
		"merger.wait_ms_p50":          {orZero(percentile(mw, 5000)), "ms"},
		"merger.wait_ms_p99":          {orZero(percentile(mw, 9900)), "ms"},
		"merger.release_stall_ms_max": {a.maxStall.Seconds() * msPerSecond, "ms"},
		"merger.combined_share":       {float64(a.combined) / float64(a.tuples), "ratio"},
		"core.weight_error":           {a.weightErr / float64(max(a.errTicks, 1)), "ratio"},
		"core.converge_ms":            {orZero(median(a.converge)), "ms"},
		"core.ticks":                  {float64(a.ticks), "count"},
		"core.rebalance_us":           {a.rebalance.Seconds() * 1e6 / float64(max(a.rebalances, 1)), "us"},
		"schedule.key_imbalance":      {a.keyImbalance / float64(a.runs), "ratio"},
		"schedule.route_ns_per_call":  {float64(a.routeTime) / float64(max(a.routeCalls, 1)), "ns"},
		"combiner.hit_ratio":          {ratio(a.hits, a.keyed), "ratio"},
		"combiner.ns_per_call":        {float64(a.combineNS) / float64(max(a.combineCalls, 1)), "ns"},
		"gen.late_ms_p99":             {orZero(percentile(lt, 9900)), "ms"},
		"gen.source_ns_per_tuple":     {a.srcNS / a.srcCalls, "ns"},
	}
}

func orZero(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writeSpans writes the spans of up to maxSpanTuples tuples, evenly spread
// over the last traced run, as JSON lines, one span per line. Spans of one tuple share its sequence number as "trace"; each
// names the span that caused it as "parent".
func (tr *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type rec struct {
		Trace   uint64  `json:"trace"`
		Name    string  `json:"name"`
		Parent  string  `json:"parent,omitempty"`
		StartNS int64   `json:"start_ns"`
		EndNS   int64   `json:"end_ns"`
		Worker  *int32  `json:"worker,omitempty"`
		Carrier *uint64 `json:"carrier,omitempty"`
	}
	step := max(1, len(tr.spans)/maxSpanTuples)
	for i := 0; i < len(tr.spans); i += step {
		sp := &tr.spans[i]
		if sp.genEnd == 0 {
			continue
		}
		seq := uint64(i) * tr.w.stride
		recs := []rec{{Trace: seq, Name: "gen", StartNS: int64(sp.genStart), EndNS: int64(sp.genEnd)}}
		if sp.routeEnd != 0 {
			recs = append(recs, rec{Trace: seq, Name: "schedule.route", Parent: "gen", StartNS: int64(sp.routeStart), EndNS: int64(sp.routeEnd)})
		}
		if sp.procIn != 0 {
			worker := sp.worker
			recs = append(recs,
				rec{Trace: seq, Name: "transport.in", Parent: "gen", StartNS: int64(sp.genEnd), EndNS: int64(sp.procIn), Worker: &worker},
				rec{Trace: seq, Name: "worker.process", Parent: "transport.in", StartNS: int64(sp.procIn), EndNS: int64(sp.procOut), Worker: &worker})
		}
		if sp.combEnd != 0 {
			recs = append(recs, rec{Trace: seq, Name: "combiner.combine", Parent: "worker.process", StartNS: int64(sp.combStart), EndNS: int64(sp.combEnd), Carrier: &sp.carrier})
		}
		if sp.sink != 0 {
			recs = append(recs, rec{Trace: seq, Name: "merger.wait", Parent: "worker.process", StartNS: int64(sp.procOut), EndNS: int64(sp.sink)})
		}
		for _, r := range recs {
			if err := enc.Encode(r); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
