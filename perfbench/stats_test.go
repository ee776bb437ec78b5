package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{1, 2, 3, 4, 5}, 0.75, 4},
		{[]float64{1, 2, 3, 4}, 0.25, 1.75},
		{[]float64{0, 10}, 0.9, 9},
		{[]float64{7}, 0.9, 7},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{5, 1, 4}
	median(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 4 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct{ n, want int }{
		{1000, 99},
		{100, 90},
		{150, 93},
		{50, 80},
		{20, 50},
		{19, 0},
		{0, 0},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, 10); got != c.want {
			t.Errorf("tailPercentile(%d, 10) = %d, want %d", c.n, got, c.want)
		}
	}
}

// at returns the instant ms milliseconds after a fixed origin.
func at(ms float64) time.Time {
	return time.Unix(1_700_000_000, 0).Add(time.Duration(ms * float64(time.Millisecond)))
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	// The POST answers after the job has started (durable submit
	// journaling); the poll notices "done" 2ms after it finished.
	r := &jobRec{
		sent: at(0), posted: at(5),
		submitted: at(1), started: at(2), finished: at(10),
		fetchStart: at(12), fetchDone: at(15),
	}
	if got, want := r.covered(), 0.013; math.Abs(got-want) > 1e-9 {
		t.Errorf("covered = %v, want %v", got, want)
	}
	if got, want := r.turnaround(), 0.015; math.Abs(got-want) > 1e-9 {
		t.Errorf("turnaround = %v, want %v", got, want)
	}
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// sameMetrics checks that res prints exactly the declared metrics, each
// with its declared unit.
func sameMetrics(t *testing.T, res *result, decl []struct{ Name, Unit string }) {
	t.Helper()
	want := map[string]string{}
	for _, m := range decl {
		if m.Unit == "" {
			t.Errorf("metric %s is declared without a unit", m.Name)
		}
		want[m.Name] = m.Unit
	}
	for name, m := range res.metrics {
		unit, ok := want[name]
		if !ok {
			t.Errorf("printed metric %s is not declared in BENCHMARK.json", name)
		} else if unit != m.Unit {
			t.Errorf("metric %s printed in %s, declared in %s", name, m.Unit, unit)
		}
	}
	var missing []string
	for name := range want {
		if _, ok := res.metrics[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("declared metrics not printed: %v", missing)
	}
}

func sampleWindow() *window {
	rec := func(off float64) *jobRec {
		return &jobRec{
			sent: at(off), posted: at(off + 1),
			submitted: at(off + 0.5), started: at(off + 1), finished: at(off + 20),
			fetchStart: at(off + 21), fetchDone: at(off + 23), polls: 19,
		}
	}
	runs := []runJSON{{Mode: "rt", RuntimeSec: 0.018, Phases: []phaseJSON{{"relational", 10}, {"merge", 6}, {"transaction", 1.5}, {"recode", 0.5}}}}
	return &window{
		elapsed: 1,
		logs: []*runLog{{
			jobs:      []*jobEntry{{rec: rec(0), runs: runs}, {rec: rec(30), cacheHit: true, runs: runs}},
			uploads:   []uploadRec{{bytes: 1 << 20, secs: 0.01}},
			attempted: 3,
		}},
	}
}

func TestEndToEndMetricsMatchDeclaration(t *testing.T) {
	win := sampleWindow()
	lg := win.logs[0]
	for len(lg.jobs) < 100 {
		lg.jobs = append(lg.jobs, lg.jobs[0])
	}
	// Calibration samples at twice the reference time: the host ran at
	// half the reference speed, so times halve and rates double.
	win.calib = []float64{2 * calibRefSeconds, 3 * calibRefSeconds}
	su := setups{secs: []float64{0.3, 0.2, 0.4}, rss: []float64{20, 21, 22}, calib: []float64{calibRefSeconds, 2 * calibRefSeconds}}
	res := e2eMetrics(e2eInputs{setups: su, win: win, cpuSecs: 0.5, endRSS: 40})
	sameMetrics(t, res, loadDeclared(t).EndToEnd)
	for name, want := range map[string]float64{
		"setup_s":           0.15, // the median 0.3, scaled
		"jobs_per_s":        200,  // 100 jobs in 1 s, scaled
		"cpu_s_per_job":     0.0025,
		"setup_peak_rss_mb": 21, // the median, not scaled
	} {
		if got := res.metrics[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if len(res.problems) != 0 || res.attempted != 3 {
		t.Errorf("problems %v, attempted %d", res.problems, res.attempted)
	}
}

func TestEndToEndMetricsRefuseUndersampledP90(t *testing.T) {
	win := sampleWindow()
	win.calib = []float64{calibRefSeconds}
	res := e2eMetrics(e2eInputs{setups: setups{secs: []float64{1}, rss: []float64{1}, calib: []float64{calibRefSeconds}}, win: win})
	if len(res.problems) != 1 || !strings.Contains(res.problems[0], "beyond p90") {
		t.Errorf("2 jobs: problems %v, want one about p90", res.problems)
	}
}

func TestCalibrateAndHostScale(t *testing.T) {
	if s := calibrate(); s <= 0 {
		t.Fatalf("calibrate() = %v", s)
	}
	if got := hostScale([]float64{calibRefSeconds / 4, calibRefSeconds * 3 / 4}); got != 2 {
		t.Errorf("hostScale = %v, want 2 for a host twice the reference speed", got)
	}
}

func TestLayerMetricsMatchDeclaration(t *testing.T) {
	in := layerInputs{
		win:         sampleWindow(),
		untracedP50: 0.02,
		fs:          fsCounts{written: 4096, fsyncs: 4, fsyncSecs: 0.002, cacheReadSecs: 0.001},
		direct:      &directTotals{cases: 1, decode: 0.01, layers: map[string]float64{}, runEval: 0.015, slotSecs: 0.019},
	}
	in.stats1.Cache.Hits, in.stats1.Cache.Misses, in.stats1.Cache.DiskHits = 1, 1, 1
	res := layerMetrics(in)
	sameMetrics(t, res, loadDeclared(t).PerLayer)
	// Only the cache miss's phases count: a hit replays stored timings.
	if got := res.metrics["relational.run_s"].Value; math.Abs(got-0.005) > 1e-12 {
		t.Errorf("relational.run_s = %v, want 0.010 over 2 jobs", got)
	}
	if got := res.metrics["engine.cache_hit_ratio"].Value; got != 0.5 {
		t.Errorf("engine.cache_hit_ratio = %v, want 0.5", got)
	}
}
