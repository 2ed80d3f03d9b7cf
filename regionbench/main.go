// Command regionbench is the repository benchmark. It runs one workload of
// an ordered data-parallel region (runtime.NewRegion and Region.Run) for a
// fixed time, checks every released tuple, and prints its metrics as one
// JSON object on the last line of standard output. README.md describes the
// workloads, the metrics and how to run it.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// setupProbes is how many fresh processes time a cold set-up per run. They
// are spread over the run's measurement, so that the figure averages the
// host's state over the run rather than sampling one moment of it.
const setupProbes = 101

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	traceDir   string
	setupProbe bool
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "regionbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	var o options
	fs := flag.NewFlagSet("regionbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: inproc-saturate, tcp-paced, hetero-shift or keyed-skew")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "seconds to measure")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced measurement and prints per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "directory the traced run writes its spans to")
	fs.BoolVar(&o.setupProbe, "setup-probe", false, "time one cold set-up, print it in seconds and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookup(o.workload)
	if err != nil {
		return err
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	if o.setupProbe {
		s, err := setupOnce(w, o.seed)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(stdout, strconv.FormatFloat(s, 'g', -1, 64))
		return err
	}
	goruntime.GOMAXPROCS(min(goruntime.GOMAXPROCS(0), goruntime.NumCPU()))
	budget := time.Duration(o.seconds) * time.Second
	// A region that wedges must not hold the benchmark past its own time.
	watchdog := time.AfterFunc(budget+time.Minute, func() {
		fmt.Fprintln(os.Stderr, "regionbench: timed out")
		os.Exit(2)
	})
	defer watchdog.Stop()
	var out result
	details := map[string]any{
		"workload":   w.name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"gomaxprocs": goruntime.GOMAXPROCS(0),
		"numcpu":     goruntime.NumCPU(),
	}
	if o.trace == 1 {
		out, err = traced(w, o, budget, details)
	} else {
		out, err = untraced(w, o, budget, details)
	}
	if err != nil {
		return err
	}
	if w.shift > 0 {
		before, after := w.oracles()
		details["oracle_tuples_per_s"] = map[string]float64{"before": before.rate, "after": after.rate, "stream": streamRate(before.rate, after.rate)}
		details["rr_bound_tuples_per_s"] = map[string]float64{"before": before.rr, "after": after.rr, "stream": streamRate(before.rr, after.rr)}
	}
	if err := printJSON(stdout, details); err != nil {
		return err
	}
	return printJSON(stdout, out)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// setupOnce times the cold set-up of one run: input generation and the
// region's construction, up to NewRegion returning a ready region.
func setupOnce(w *workload, seed int64) (float64, error) {
	start := time.Now()
	b := newBuffers(w, 0)
	r, err := newRun(w, seed, w.round, b, nil)
	elapsed := time.Since(start)
	if err != nil {
		return 0, err
	}
	r.region.Close()
	return elapsed.Seconds(), nil
}

// setupProber times cold set-ups in fresh processes: a set-up repeated
// inside one process is warm and not what a user pays.
type setupProber struct {
	exe  string
	w    *workload
	seed int64
	vals []float64 // seconds
}

func newSetupProber(w *workload, seed int64) (*setupProber, error) {
	exe, err := os.Executable()
	return &setupProber{exe: exe, w: w, seed: seed}, err
}

// upTo times set-ups until it holds n.
func (p *setupProber) upTo(n int) error {
	for len(p.vals) < n {
		var stdout bytes.Buffer
		cmd := exec.Command(p.exe, "--setup-probe", "--workload", p.w.name, "--seed", strconv.FormatInt(p.seed, 10))
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("setup probe: %w", err)
		}
		v, err := strconv.ParseFloat(string(bytes.TrimSpace(stdout.Bytes())), 64)
		if err != nil {
			return fmt.Errorf("setup probe output: %w", err)
		}
		p.vals = append(p.vals, v)
	}
	return nil
}

// lowerQuartile summarises the set-ups: the host taking the CPU away only
// ever lengthens one.
func (p *setupProber) lowerQuartile() float64 {
	return quartile(slices.Clone(p.vals), 2500)
}

// runStats are one run's end-to-end figures.
type runStats struct {
	rate, cpuNS, allocB, allocs float64 // per-tuple except rate
	p99                         float64 // open loop: release latency, ms
	samples                     int     // open loop: latency samples
}

// measurement holds the runs of one timed measurement.
type measurement struct {
	w                 *workload
	seed              int64
	tr                *tracer
	b                 *buffers
	runs              []runStats
	attempted, failed uint64
	gcCycles          uint32
	gcPause           time.Duration
	next              int           // index of the next run
	latFrom           int           // samples of b.lat taken before the current run
	spent             time.Duration // time in measured runs
}

// newMeasurement prepares a measurement of w whose runs take about budget
// in all; tr, when set, instruments every run.
func newMeasurement(w *workload, seed int64, budget time.Duration, tr *tracer) *measurement {
	return &measurement{w: w, seed: seed, tr: tr, b: newBuffers(w, budget)}
}

// Interference from outside the process — another guest taking the host's
// CPU for a few milliseconds — only ever slows a run down or adds to its CPU
// time and its allocations (in a disturbed process, tcp-paced allocated up
// to 126 B per tuple against 72), and it lands in some runs and not others. The better quartile of
// the runs stays within the spread of the undisturbed runs until three
// quarters are disturbed; the median leaves it once half are.

// higher returns the 75th percentile over the runs of a figure where higher
// is better.
func (m *measurement) higher(f func(runStats) float64) float64 {
	return quartile(perRun(m, f), 7500)
}

// lower returns the 25th percentile over the runs of a figure where lower is
// better.
func (m *measurement) lower(f func(runStats) float64) float64 {
	return quartile(perRun(m, f), 2500)
}

// middle returns the median over the runs, for the details line.
func (m *measurement) middle(f func(runStats) float64) float64 {
	return quartile(perRun(m, f), 5000)
}

func quartile(xs []float64, q int) float64 {
	slices.Sort(xs)
	return percentile(xs, q)
}

// perRun returns one figure of every run, in run order.
func perRun(m *measurement, f func(runStats) float64) []float64 {
	xs := make([]float64, len(m.runs))
	for i, r := range m.runs {
		xs[i] = f(r)
	}
	return xs
}

// measure repeats runs of w until budget is spent, after a warm-up run of a
// quarter size when warm is set.
func measure(w *workload, seed int64, budget time.Duration, warm bool, tr *tracer) (*measurement, error) {
	m := newMeasurement(w, seed, budget, tr)
	begin := time.Now()
	if warm {
		if _, err := m.step(true); err != nil {
			return nil, err
		}
	}
	for {
		last, err := m.step(false)
		if err != nil {
			return nil, err
		}
		if time.Since(begin)+last > budget {
			return m, nil
		}
	}
}

// step runs the measurement's next run and returns how long it took; a
// warm-up run has a quarter of the tuples and is left out of the figures.
// Each run starts after garbage collection, so that runs find the heap and
// the runtime's buffer pools in the same state. CPU time and allocations
// cover constructing the run's region as well as running it: construction
// finishes on goroutines of its own (a TCP worker allocates its reader when
// the splitter's connection arrives), so a window that began after
// NewRegion returned would catch part of it by chance.
func (m *measurement) step(warmup bool) (time.Duration, error) {
	w, i := m.w, m.next
	m.next++
	n := w.round
	if warmup {
		n /= 4
	}
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second drops them.
	goruntime.GC()
	goruntime.GC()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	cpu0 := cpuTime()
	runStart := time.Now()
	r, err := newRun(w, m.seed*1_000_003+int64(i), n, m.b, m.tr)
	if err != nil {
		return 0, err
	}
	failed := r.execute()
	last := time.Since(runStart)
	cpu1 := cpuTime()
	goruntime.ReadMemStats(&after)
	if r.err != nil {
		fmt.Fprintf(os.Stderr, "regionbench: %s run %d: %v\n", w.name, i, r.err)
	}
	m.attempted += n
	m.failed += failed
	if warmup {
		m.b.lat.reset()
		m.b.late.reset()
		m.latFrom = 0
		return last, nil
	}
	lat := m.b.lat.since(m.latFrom)
	m.latFrom = m.b.lat.n
	m.runs = append(m.runs, runStats{
		rate:    r.rate(),
		cpuNS:   float64(cpu1-cpu0) / float64(n),
		allocB:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		allocs:  float64(after.Mallocs-before.Mallocs) / float64(n),
		p99:     percentile(lat, 9900),
		samples: len(lat),
	})
	m.gcCycles += after.NumGC - before.NumGC
	m.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	if m.tr != nil {
		m.tr.collect(r)
	}
	m.spent += last
	return last, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// untraced measures the end-to-end metrics. An open loop times its own
// tuples. A closed loop keeps every buffer full, so its latency reads buffer
// sizes, not the region: it gets its latency from an open-loop probe
// (latencyProbe) instead, whose runs take probeShare of the time. The probe
// runs and the set-up probes are spread between the throughput runs, so
// that every figure averages the host's state over the whole measurement.
func untraced(w *workload, o options, budget time.Duration, details map[string]any) (result, error) {
	sp, err := newSetupProber(w, o.seed)
	if err != nil {
		return result{}, err
	}
	m := newMeasurement(w, o.seed, budget, nil)
	lm := m
	if w.rate == 0 {
		lm = newMeasurement(w.latencyProbe(), o.seed, time.Duration(float64(budget)*probeShare), nil)
	}
	begin := time.Now()
	if _, err := m.step(true); err != nil {
		return result{}, err
	}
	for {
		last, err := m.step(false)
		if err != nil {
			return result{}, err
		}
		for lm != m && lm.spent < time.Duration(float64(time.Since(begin))*probeShare) {
			if _, err := lm.step(false); err != nil {
				return result{}, err
			}
		}
		if err := sp.upTo(int(setupProbes * min(1, time.Since(begin).Seconds()/budget.Seconds()))); err != nil {
			return result{}, err
		}
		if time.Since(begin)+last > budget {
			break
		}
	}
	if err := sp.upTo(setupProbes); err != nil {
		return result{}, err
	}
	// The p50 pools the samples of every latency run. The p99 is only in
	// the details line: a host disturbance of a minute or more lifts the
	// tail of most of a process's runs, so no summary of it stays within a
	// bound (README.md, Latency).
	lat := lm.b.lat.sorted()
	fewest := len(lat)
	for _, r := range lm.runs {
		fewest = min(fewest, r.samples)
	}
	tps := m.higher(func(r runStats) float64 { return r.rate })
	details["runs"] = len(m.runs)
	details["round_tuples"] = w.round
	details["run_tuples_per_s"] = perRun(m, func(r runStats) float64 { return r.rate })
	details["run_cpu_ns_per_tuple"] = perRun(m, func(r runStats) float64 { return r.cpuNS })
	details["run_alloc_bytes_per_tuple"] = perRun(m, func(r runStats) float64 { return r.allocB })
	details["cpu_ns_per_tuple"] = m.lower(func(r runStats) float64 { return r.cpuNS })
	details["run_latency_p99_ms"] = perRun(lm, func(r runStats) float64 { return r.p99 })
	details["latency_runs"] = len(lm.runs)
	details["latency_samples"] = len(lat)
	details["latency_samples_per_run_min"] = fewest
	details["latency_highest_supported_pct"] = float64(highestSupported(fewest)) / 100
	details["latency_p99_ms"] = lm.middle(func(r runStats) float64 { return r.p99 })
	details["latency_pooled_p99_ms"] = percentile(lat, 9900)
	details["setup_probes_s"] = sp.vals
	if w.shift > 0 {
		before, after := w.oracles()
		details["efficiency_vs_oracle"] = tps / streamRate(before.rate, after.rate)
	}
	attempted, failed := m.attempted, m.failed
	if lm != m {
		attempted, failed = attempted+lm.attempted, failed+lm.failed
	}
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"tuples_per_s":          {tps, "1/s"},
			"latency_p50_ms":        {percentile(lat, 5000), "ms"},
			"alloc_bytes_per_tuple": {m.lower(func(r runStats) float64 { return r.allocB }), "B"},
			"allocs_per_tuple":      {m.lower(func(r runStats) float64 { return r.allocs }), "count"},
			"max_rss_mb":            {maxRSSMB(), "MB"},
			"setup_s":               {sp.lowerQuartile(), "s"},
		},
	}, nil
}

// traced measures the per-layer metrics: an untraced part, a traced part of
// the same length whose throughput against the first gives the tracing
// overhead, and a one-worker reference of the same job.
func traced(w *workload, o options, budget time.Duration, details map[string]any) (result, error) {
	part := budget * 2 / 5
	plain, err := measure(w, o.seed, part, true, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer(w)
	tm, err := measure(w, o.seed, part, false, tr)
	if err != nil {
		return result{}, err
	}
	one := w.oneWorker()
	ref, err := measure(one, o.seed, budget-2*part, true, nil)
	if err != nil {
		return result{}, err
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
	if err := tr.writeSpans(path); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	details["spans"] = path
	rate := func(r runStats) float64 { return r.rate }
	plainTPS, tracedTPS := plain.higher(rate), tm.higher(rate)
	details["untraced_tuples_per_s"] = plainTPS
	details["traced_tuples_per_s"] = tracedTPS

	metrics := tr.metrics(tm.b.late)
	metrics["go.cpu_ns_per_tuple"] = metric{plain.lower(func(r runStats) float64 { return r.cpuNS }), "ns"}
	metrics["go.gc_cycles"] = metric{float64(plain.gcCycles), "count"}
	metrics["go.gc_pause_ms"] = metric{plain.gcPause.Seconds() * msPerSecond, "ms"}
	metrics["trace.overhead_pct"] = metric{(plainTPS - tracedTPS) / plainTPS * 100, "%"}
	metrics["ref.one_worker_tuples_per_s"] = metric{ref.higher(rate), "1/s"}
	failed := plain.failed + tm.failed + ref.failed
	return result{
		Correct:   failed == 0,
		Attempted: plain.attempted + tm.attempted + ref.attempted,
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}
