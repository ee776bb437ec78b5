package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: metrics in the order they were added, the
// human-readable report lines printed before them, and every failed
// check.
type result struct {
	attempted, failed int
	problems          []string
	report            []string
	names             []string
	metrics           map[string]metricValue
}

func (r *result) add(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metricValue{}
	}
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

// print writes the report, the metric table, the failed checks and, last,
// the one-line JSON summary.
func (r *result) print() int {
	for _, line := range r.report {
		fmt.Println(line)
	}
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Printf("  %-30s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for i, p := range r.problems {
		if i == 20 {
			fmt.Printf("CHECK FAILED: ... and %d more\n", len(r.problems)-i)
			break
		}
		fmt.Println("CHECK FAILED:", p)
	}
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, max(r.attempted, 1), r.failed, r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// e2eInputs is what an untraced run measured.
type e2eInputs struct {
	setups  setups
	win     *window
	cpuSecs float64 // server CPU over the timed window
	// endRSS is the server's peak RSS (MiB) at the end of the timed window.
	endRSS    float64
	durable   bool
	dirGrowth int64
}

// e2eMetrics computes the end-to-end metrics (BENCHMARK.json end_to_end)
// from an untraced run. Times are scaled to the reference host by the
// run's calibration samples (hostScale); the report lines give them
// unscaled too.
func e2eMetrics(in e2eInputs) *result {
	jobs := in.win.jobs()
	attempted, failed, errs := in.win.counts()
	res := &result{attempted: attempted, failed: failed, problems: errs}
	n := float64(len(jobs))
	if n == 0 {
		res.problems = append(res.problems, "no job finished in the timed window")
		n = 1
	}
	all := turnarounds(jobs, nil)
	if p := tailPercentile(len(all), 10); p < 90 {
		res.problems = append(res.problems, fmt.Sprintf("%d jobs leave fewer than 10 samples beyond p90 (highest such percentile: p%d)", len(all), p))
	}
	calib := append(append([]float64(nil), in.setups.calib...), in.win.calib...)
	scale := hostScale(calib)
	raw := map[string]float64{
		"setup_s":          median(in.setups.secs),
		"turnaround_p50_s": median(all),
		"turnaround_p90_s": quantile(all, 0.9),
		"jobs_per_s":       float64(len(jobs)) / in.win.elapsed,
		"cpu_s_per_job":    in.cpuSecs / n,
	}
	res.report = append(res.report,
		fmt.Sprintf("jobs %d in %.2fs; highest percentile with >=10 samples beyond it: p%d", len(jobs), in.win.elapsed, tailPercentile(len(all), 10)),
		fmt.Sprintf("calibration: %d samples, median %.5fs, range %.5f-%.5fs; host scale %.4f (reference %gs)",
			len(calib), median(calib), slices.Min(calib), slices.Max(calib), scale, calibRefSeconds),
		fmt.Sprintf("unscaled: setup %.4fs, turnaround p50 %.4fs p90 %.4fs, %.3f jobs/s, cpu %.4fs/job",
			raw["setup_s"], raw["turnaround_p50_s"], raw["turnaround_p90_s"], raw["jobs_per_s"], raw["cpu_s_per_job"]),
		fmt.Sprintf("set-up runs (s): %v; peak RSS after set-up (MiB): %v", in.setups.secs, in.setups.rss),
		// The end-of-run peak grows with the results the server retains, so
		// with the number of jobs a run completes: reported, not gated.
		fmt.Sprintf("peak RSS at the end of the window: %.1f MiB", in.endRSS))
	res.add("setup_s", "s", raw["setup_s"]*scale)
	res.add("turnaround_p50_s", "s", raw["turnaround_p50_s"]*scale)
	res.add("turnaround_p90_s", "s", raw["turnaround_p90_s"]*scale)
	res.add("jobs_per_s", "1/s", raw["jobs_per_s"]/scale)
	res.add("cpu_s_per_job", "s", raw["cpu_s_per_job"]*scale)
	res.add("setup_peak_rss_mb", "MB", median(in.setups.rss))
	// Figures only service-churn's traffic produces are reported here but
	// not gated; the traced run gives them as per-layer metrics (NOTES.md).
	if hits := turnarounds(jobs, func(j *jobEntry) bool { return j.cacheHit }); len(hits) > 0 {
		res.report = append(res.report, fmt.Sprintf("cache hits %d, turnaround p50 %.4fs", len(hits), median(hits)))
	}
	if ups := in.win.uploads(); len(ups) > 0 {
		res.report = append(res.report, fmt.Sprintf("uploads %d, %.2f MB/s", len(ups), uploadMBps(ups)))
	}
	if in.durable {
		res.report = append(res.report, fmt.Sprintf("data dir grew %.0f B per job", float64(in.dirGrowth)/n))
	}
	return res
}

// layerInputs is what a traced run measured.
type layerInputs struct {
	win            *window
	setupUploads   []uploadRec
	untracedP50    float64
	stats0, stats1 serverStats
	fs             fsCounts
	dirGrowth      int64
	direct         *directTotals
}

// algoLayers are the algorithm layers, in table order.
var algoLayers = []string{"relational.run_s", "rt.merge_s", "rt.transaction_s", "rt.recode_s", "transaction.run_s"}

// layerMetrics computes the per-layer metrics (BENCHMARK.json per_layer)
// and the layer table from a traced run.
func layerMetrics(in layerInputs) *result {
	res := &result{}
	jobs := in.win.jobs()
	n := float64(max(len(jobs), 1))
	var submit, queue, exec, fetch, polls, turn, covered float64
	// Anonymize results carry each run's phases; compare results carry
	// none, so their algorithm layers come from the direct calls.
	directAlgo := true
	for _, j := range jobs {
		directAlgo = directAlgo && len(j.runs) == 0
	}
	algo := map[string]float64{}
	for _, j := range jobs {
		submit += j.rec.submit()
		queue += j.rec.queueWait()
		exec += j.rec.exec()
		fetch += j.rec.fetch()
		polls += float64(j.rec.polls)
		turn += j.rec.turnaround()
		covered += j.rec.covered()
		if !j.cacheHit {
			for _, r := range j.runs {
				addAlgoLayers(algo, r)
			}
		}
	}
	d := in.direct
	cases := float64(max(d.cases, 1))
	algoDiv := n
	if directAlgo {
		algo, algoDiv = d.layers, cases
	}
	ups := in.win.uploads()
	if len(ups) == 0 {
		ups = in.setupUploads
	}
	upSecs := 0.0
	for _, u := range ups {
		upSecs += u.secs
	}
	hits := turnarounds(jobs, func(j *jobEntry) bool { return j.cacheHit })
	dHits := in.stats1.Cache.Hits - in.stats0.Cache.Hits
	dMisses := in.stats1.Cache.Misses - in.stats0.Cache.Misses
	dDisk := in.stats1.Cache.DiskHits - in.stats0.Cache.DiskHits
	tracedP50 := median(turnarounds(jobs, nil))

	res.add("server.submit_s", "s", submit/n)
	res.add("server.queue_wait_s", "s", queue/n)
	res.add("server.exec_s", "s", exec/n)
	res.add("server.fetch_s", "s", fetch/n)
	res.add("server.polls_per_job", "count", polls/n)
	res.add("server.upload_s", "s", upSecs/float64(max(len(ups), 1)))
	res.add("upload_mb_per_s", "MB/s", uploadMBps(ups))
	res.add("cache_hit_p50_s", "s", median(hits))
	res.add("dataset.decode_s", "s", d.decode/cases)
	res.add("dataset.intern_s", "s", d.intern/cases)
	res.add("hierarchy.build_s", "s", d.hier/cases)
	for _, name := range algoLayers {
		res.add(name, "s", algo[name]/algoDiv)
	}
	res.add("rt.merges", "count", float64(d.merges))
	res.add("rt.clusters", "count", float64(d.clusters))
	res.add("query.are_s", "s", d.are/cases)
	res.add("engine.evaluate_s", "s", d.evaluate/cases)
	res.add("engine.parallel_efficiency", "ratio", ratio(d.runEval, d.slotSecs))
	res.add("engine.cache_hit_ratio", "ratio", ratio(dHits, dHits+dMisses))
	res.add("engine.disk_hits", "count", dDisk)
	res.add("registry.reloads", "count", in.stats1.Registry.Misses-in.stats0.Registry.Misses)
	res.add("store.bytes_written_per_job", "B", float64(in.fs.written)/n)
	res.add("store.fsyncs_per_job", "count", float64(in.fs.fsyncs)/n)
	res.add("store.fsync_s", "s", in.fs.fsyncSecs/n)
	res.add("store.cache_read_s", "s", ratio(in.fs.cacheReadSecs, dDisk))
	res.add("stored_bytes_per_job", "B", float64(in.dirGrowth)/n)
	res.add("export.ndjson_s", "s", d.ndjson/cases)
	res.add("export.json_s", "s", d.json/cases)
	res.add("unaccounted_share", "ratio", 1-ratio(covered, turn))
	res.add("traced.turnaround_p50_s", "s", tracedP50)
	res.add("untraced.turnaround_p50_s", "s", in.untracedP50)
	res.add("tracing_overhead_share", "ratio", ratio(tracedP50, in.untracedP50)-1)

	// The layer table: mean seconds per job along the blocking path, with
	// the algorithm layers nested in exec.
	res.report = append(res.report, fmt.Sprintf("traced jobs %d; layer table, mean s per job and share of mean turnaround %.5fs:", len(jobs), turn/n))
	row := func(name string, v float64) {
		res.report = append(res.report, fmt.Sprintf("  %-26s %10.5f %6.1f%%", name, v, 100*ratio(v, turn/n)))
	}
	row("server.submit", submit/n)
	row("server.queue_wait", queue/n)
	row("server.exec", exec/n)
	if directAlgo {
		// Direct calls run serially; scale their split to the job's exec.
		total := d.evaluate + d.are
		for _, name := range algoLayers {
			total += d.layers[name]
		}
		share := func(v float64) float64 { return ratio(v, total) * exec / n }
		for _, name := range algoLayers {
			row("  "+strings.TrimSuffix(name, "_s")+" (direct share)", share(d.layers[name]))
		}
		row("  engine.evaluate (direct share)", share(d.evaluate))
		row("  query.are (direct share)", share(d.are))
	} else {
		inExec := 0.0
		for _, name := range algoLayers {
			inExec += algo[name] / n
			row("  "+strings.TrimSuffix(name, "_s"), algo[name]/n)
		}
		row("  exec self (load, evaluate, persist)", exec/n-inExec)
	}
	row("server.fetch", fetch/n)
	row("overlap of submit with queue/exec", (covered-submit-queue-exec-fetch)/n)
	row("unaccounted (poll lag, client)", (turn-covered)/n)
	return res
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
