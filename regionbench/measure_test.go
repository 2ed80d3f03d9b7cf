package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestHighestSupported(t *testing.T) {
	for n, want := range map[int]int{
		0: 0, 19: 0, 20: 5000, 99: 5000, 100: 9000, 999: 9000,
		1000: 9900, 9999: 9900, 10000: 9990, 100000: 9999,
	} {
		if got := highestSupported(n); got != want {
			t.Errorf("highestSupported(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for q, want := range map[int]float64{5000: 500, 9000: 900, 9900: 990, 9990: 999, 9999: 1000} {
		if got := percentile(sorted, q); got != want {
			t.Errorf("percentile(1..1000, %d) = %v, want %v", q, got, want)
		}
	}
	if got := percentile([]float64{7}, 9999); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 5000); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
}

func TestSamplesKeepNewest(t *testing.T) {
	s := newSamples(4)
	for i := 1; i <= 6; i++ {
		s.add(float64(i))
	}
	got := s.sorted()
	want := []float64{3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("sorted() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted() = %v, want %v", got, want)
		}
	}
}

func TestSamplesSince(t *testing.T) {
	s := newSamples(4)
	for _, x := range []float64{9, 2, 7} {
		s.add(x)
	}
	if got := s.since(1); !slices.Equal(got, []float64{2, 7}) {
		t.Errorf("since(1) = %v, want [2 7]", got)
	}
	s.add(1)
	s.add(5) // overwrites 9
	if got := s.since(3); got != nil {
		t.Errorf("since(3) after overwrite = %v, want nil", got)
	}
	empty := newSamples(0)
	empty.add(1)
	if got := empty.sorted(); len(got) != 0 {
		t.Errorf("capacity-0 buffer kept %v", got)
	}
}

func TestOrderCheckGapless(t *testing.T) {
	for _, tc := range []struct {
		name     string
		seqs     []uint64
		n        uint64
		absorbed uint64
		want     uint64
	}{
		{"in order", []uint64{0, 1, 2, 3, 4}, 5, 0, 0},
		{"duplicate", []uint64{0, 1, 1, 2, 3, 4}, 5, 0, 1},
		{"gap", []uint64{0, 1, 3, 4}, 5, 0, 1},
		{"swapped pair", []uint64{0, 2, 1, 3, 4}, 5, 0, 2},
		{"missing tail", []uint64{0, 1, 2}, 5, 0, 2},
		{"nothing released", nil, 5, 0, 5},
		{"replayed from start", []uint64{0, 1, 2, 0, 1, 2, 3, 4}, 5, 0, 3},
		{"absorbed in an unkeyed stream", []uint64{0, 1, 2, 3, 4}, 5, 1, 1},
		{"capped at the stream length", []uint64{4, 3, 2, 1, 0, 0, 0}, 5, 0, 5},
	} {
		c := orderCheck{}
		for _, s := range tc.seqs {
			c.observe(s)
		}
		if got := c.finish(tc.n, tc.absorbed); got != tc.want {
			t.Errorf("%s: failed = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestOrderCheckKeyed(t *testing.T) {
	for _, tc := range []struct {
		name     string
		seqs     []uint64
		values   []uint64
		n        uint64
		absorbed uint64
		want     uint64
	}{
		{"carriers cover the stream", []uint64{0, 2, 5}, []uint64{2, 3, 1}, 6, 3, 0},
		{"duplicate carrier", []uint64{0, 2, 2, 5}, []uint64{2, 3, 3, 1}, 6, 3, 1 + 1 + 3},
		{"reordered carriers", []uint64{0, 5, 2}, []uint64{2, 1, 3}, 6, 3, 1},
		{"lost absorbed seq", []uint64{0, 2, 5}, []uint64{2, 3, 1}, 6, 2, 1},
		{"lost fold value", []uint64{0, 2, 5}, []uint64{2, 2, 1}, 6, 3, 1},
	} {
		c := orderCheck{gapsAllowed: true}
		for i, s := range tc.seqs {
			c.observe(s)
			c.sum += tc.values[i]
		}
		if got := c.finish(tc.n, tc.absorbed); got != tc.want {
			t.Errorf("%s: failed = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// fakeClock drives a pacer without real time: every sleep overshoots by a
// fixed amount, as kernel timers do.
type fakeClock struct {
	now       time.Duration
	overshoot time.Duration
	sleeps    []time.Duration
}

func (c *fakeClock) install(p *pacer) {
	p.now = func(time.Time) time.Duration { return c.now }
	p.sleep = func(d time.Duration) {
		c.sleeps = append(c.sleeps, d)
		c.now += d + c.overshoot
	}
}

func TestPacerSchedule(t *testing.T) {
	p := newPacer(100_000)
	for seq, want := range map[uint64]time.Duration{0: 0, 1: 10 * time.Microsecond, 100_000: time.Second} {
		if got := p.due(seq); got != want {
			t.Errorf("due(%d) = %v, want %v", seq, got, want)
		}
	}

	clk := &fakeClock{overshoot: 35 * time.Microsecond}
	clk.install(p)
	var lateness []time.Duration
	for seq := uint64(0); seq < 10; seq++ {
		at, slept := p.wait(seq)
		if at < p.due(seq) {
			t.Fatalf("seq %d returned at %v, before its due time %v", seq, at, p.due(seq))
		}
		if slept > 0 && at-p.due(seq) != clk.overshoot {
			t.Errorf("seq %d slept %v but returned %v late, want the overshoot %v", seq, slept, at-p.due(seq), clk.overshoot)
		}
		lateness = append(lateness, at-p.due(seq))
	}
	// One overshooting sleep makes the next tuples late; the pacer catches
	// up without sleeping instead of shifting the schedule.
	want := []time.Duration{0, 35, 25, 15, 5, 35, 25, 15, 5, 35}
	for i, w := range want {
		if lateness[i] != w*time.Microsecond {
			t.Fatalf("lateness = %v, want %v µs", lateness, want)
		}
	}
	if len(clk.sleeps) != 3 {
		t.Errorf("slept %d times (%v), want 3", len(clk.sleeps), clk.sleeps)
	}
}

func TestOracle(t *testing.T) {
	w, err := lookup("hetero-shift")
	if err != nil {
		t.Fatal(err)
	}
	before, after := w.oracles()
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	if !near(before.rate, 110_000) || !near(after.rate, 140_000) {
		t.Errorf("oracle rates %v -> %v, want 110000 -> 140000", before.rate, after.rate)
	}
	if !near(before.rr, 40_000) || !near(after.rr, 80_000) {
		t.Errorf("round-robin bounds %v -> %v, want 40000 -> 80000", before.rr, after.rr)
	}
	if got := streamRate(before.rate, after.rate); !near(got, 123_200) {
		t.Errorf("stream oracle = %v, want 123200", got)
	}
	wantShares := []float64{4.0 / 11, 4.0 / 11, 2.0 / 11, 1.0 / 11}
	for j, s := range before.shares {
		if !near(s, wantShares[j]) {
			t.Errorf("share %d = %v, want %v", j, s, wantShares[j])
		}
	}
}

func TestWeightError(t *testing.T) {
	shares := []float64{0.4, 0.4, 0.2}
	for _, tc := range []struct {
		weights []int
		want    float64
	}{
		{[]int{400, 400, 200}, 0},
		{[]int{2, 2, 1}, 0},
		{[]int{1000, 0, 0}, 0.6},
		{[]int{0, 0, 1000}, 0.8},
		{[]int{333, 333, 334}, 0.134},
	} {
		if got := weightError(tc.weights, shares); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("weightError(%v) = %v, want %v", tc.weights, got, tc.want)
		}
	}
	if got := weightError([]int{0, 0, 0}, shares); !math.IsNaN(got) {
		t.Errorf("weightError of zero weights = %v, want NaN", got)
	}
}

// TestWorkloadsCheckTheirOutput runs a short stream of every workload and
// its traced form through the real region and expects no failed tuples.
func TestWorkloadsCheckTheirOutput(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var tr *tracer
			if trace {
				tr = newTracer(w)
			}
			n := w.round / 64
			r, err := newRun(w, 7, n, newBuffers(w, time.Second), tr)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if failed := r.execute(); failed != 0 || r.err != nil {
				t.Errorf("%s traced=%v: %d of %d tuples failed (err %v)", w.name, trace, failed, n, r.err)
			}
			if r.rate() <= 0 {
				t.Errorf("%s traced=%v: no steady-part rate", w.name, trace)
			}
			if tr != nil {
				tr.collect(r)
				for name, v := range tr.metrics(r.b.late) {
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit == "" {
						t.Errorf("%s: %s = %v", w.name, name, v)
					}
				}
			}
		}
	}
}

// BenchmarkSinkCost compares inproc-saturate's throughput under the
// benchmark's checking, sampling sink with a bare sink that only returns,
// over whole runs (RegionResult.Elapsed): the difference is what the
// measurement itself costs the region.
func BenchmarkSinkCost(b *testing.B) {
	base, err := lookup("inproc-saturate")
	if err != nil {
		b.Fatal(err)
	}
	for _, bare := range []bool{false, true} {
		w := *base
		w.bareSink = bare
		name := "sink=checking"
		if bare {
			name = "sink=bare"
		}
		b.Run(name, func(b *testing.B) {
			buf := newBuffers(&w, 0)
			var tuples float64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				r, err := newRun(&w, int64(i), w.round, buf, nil)
				if err != nil {
					b.Fatal(err)
				}
				if failed := r.execute(); r.err != nil || !bare && failed != 0 {
					b.Fatalf("%d tuples failed (err %v)", failed, r.err)
				}
				tuples += float64(w.round)
				elapsed += r.res.Elapsed
			}
			b.ReportMetric(tuples/elapsed.Seconds(), "tuples/s")
		})
	}
}
