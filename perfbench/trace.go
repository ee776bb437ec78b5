package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"secreta/internal/dataset"
	"secreta/internal/engine"
	"secreta/internal/export"
	"secreta/internal/faultfs"
	"secreta/internal/gen"
	"secreta/internal/query"
	"secreta/internal/rt"
	"secreta/internal/server"
	"secreta/internal/store"
)

// countingFS counts what the durable store does through the public
// faultfs.FS seam: bytes written, fsyncs and their time, and time spent
// reading result-cache files.
type countingFS struct {
	faultfs.FS
	cacheDir                   string
	written, fsyncs            atomic.Int64
	fsyncNanos, cacheReadNanos atomic.Int64
}

type fsCounts struct {
	written, fsyncs          int64
	fsyncSecs, cacheReadSecs float64
}

func (f *countingFS) snapshot() fsCounts {
	return fsCounts{
		written:       f.written.Load(),
		fsyncs:        f.fsyncs.Load(),
		fsyncSecs:     float64(f.fsyncNanos.Load()) / 1e9,
		cacheReadSecs: float64(f.cacheReadNanos.Load()) / 1e9,
	}
}

func (a fsCounts) minus(b fsCounts) fsCounts {
	return fsCounts{a.written - b.written, a.fsyncs - b.fsyncs, a.fsyncSecs - b.fsyncSecs, a.cacheReadSecs - b.cacheReadSecs}
}

func (f *countingFS) inCache(name string) bool { return strings.HasPrefix(name, f.cacheDir) }

func (f *countingFS) wrap(file faultfs.File, err error) (faultfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, fs: f, cache: f.inCache(file.Name())}, nil
}

func (f *countingFS) Open(name string) (faultfs.File, error) { return f.wrap(f.FS.Open(name)) }

func (f *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	return f.wrap(f.FS.OpenFile(name, flag, perm))
}

func (f *countingFS) Create(name string) (faultfs.File, error) { return f.wrap(f.FS.Create(name)) }

func (f *countingFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	return f.wrap(f.FS.CreateTemp(dir, pattern))
}

func (f *countingFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	err := f.FS.WriteFile(name, data, perm)
	if err == nil {
		f.written.Add(int64(len(data)))
	}
	return err
}

func (f *countingFS) ReadFile(name string) ([]byte, error) {
	t := time.Now()
	b, err := f.FS.ReadFile(name)
	if f.inCache(name) {
		f.cacheReadNanos.Add(int64(time.Since(t)))
	}
	return b, err
}

func (f *countingFS) SyncDir(dir string) error {
	t := time.Now()
	err := f.FS.SyncDir(dir)
	f.fsyncs.Add(1)
	f.fsyncNanos.Add(int64(time.Since(t)))
	return err
}

type countingFile struct {
	faultfs.File
	fs    *countingFS
	cache bool
}

func (c *countingFile) Write(p []byte) (int, error) {
	n, err := c.File.Write(p)
	c.fs.written.Add(int64(n))
	return n, err
}

func (c *countingFile) Read(p []byte) (int, error) {
	if !c.cache {
		return c.File.Read(p)
	}
	t := time.Now()
	n, err := c.File.Read(p)
	c.fs.cacheReadNanos.Add(int64(time.Since(t)))
	return n, err
}

func (c *countingFile) Sync() error {
	t := time.Now()
	err := c.File.Sync()
	c.fs.fsyncs.Add(1)
	c.fs.fsyncNanos.Add(int64(time.Since(t)))
	return err
}

// inProcess is the server hosted in the benchmark's own process over the
// public server and store APIs, with the same settings the child gets.
type inProcess struct {
	base   string
	srv    *http.Server
	st     *store.Store
	fsys   *countingFS
	dir    string
	cancel context.CancelFunc
}

func (e *runEnv) hostInProcess() (*inProcess, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ip := &inProcess{base: "http://" + ln.Addr().String(), cancel: cancel}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	opts := server.Options{MaxBodyBytes: 32 << 20, MaxConcurrentJobs: 4, MaxPendingJobs: 100, CacheMaxEntries: e.w.cacheEntries, Logger: quiet}
	if e.w.durable {
		ip.dir = filepath.Join(e.dataRoot, "traced")
		ip.fsys = &countingFS{FS: faultfs.OS, cacheDir: filepath.Join(ip.dir, "cache") + string(filepath.Separator)}
		ip.st, err = store.Open(ip.dir, store.Options{FS: faultfs.WithRetry(ip.fsys, faultfs.RetryPolicy{}), Logger: quiet})
		if err != nil {
			ln.Close()
			cancel()
			return nil, err
		}
		opts.Store = ip.st
	}
	api, err := server.New(ctx, opts)
	if err != nil {
		ip.stop()
		ln.Close()
		return nil, err
	}
	ip.srv = &http.Server{Handler: api.Handler(), BaseContext: func(net.Listener) context.Context { return ctx }}
	go ip.srv.Serve(ln) // returns ErrServerClosed once stop shuts it down
	return ip, nil
}

func (ip *inProcess) stop() {
	if ip.srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = ip.srv.Shutdown(sctx) // a drain overrun only leaves idle conns behind
		cancel()
	}
	ip.cancel()
	if ip.st != nil {
		_ = ip.st.Close() // the data dir is discarded with the run
	}
}

func (ip *inProcess) counts() fsCounts {
	if ip.fsys == nil {
		return fsCounts{}
	}
	return ip.fsys.snapshot()
}

// serverStats is the subset of GET /stats the layer table reads.
type serverStats struct {
	Cache struct {
		Hits     float64 `json:"hits"`
		Misses   float64 `json:"misses"`
		DiskHits float64 `json:"disk_hits"`
	} `json:"cache"`
	Registry struct {
		Misses float64 `json:"misses"`
	} `json:"registry"`
}

func fetchStats(base string) (serverStats, error) {
	var s serverStats
	c := newClient(base)
	defer c.close()
	out, err := c.do(http.MethodGet, "/stats", nil)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(out, &s)
}

// traced is the per-layer run: an untraced half against the child for the
// overhead comparison, then a traced half against the in-process server,
// then direct calls into each module on the workload's inputs.
func (e *runEnv) traced(seconds float64) (*result, error) {
	srv, _, err := e.bootAndSetup(0)
	if err != nil {
		return nil, err
	}
	plain := measure(e.p, e.w.clients, srv.base, seconds/2, srv)
	e.shutdown(srv)
	problems := e.p.check()

	ip, err := e.hostInProcess()
	if err != nil {
		return nil, err
	}
	defer ip.stop()
	sc := newClient(ip.base)
	err = e.p.setup(sc)
	sc.close()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	in := layerInputs{setupUploads: sc.uploads}
	if in.stats0, err = fetchStats(ip.base); err != nil {
		return nil, err
	}
	fs0 := ip.counts()
	dir0, _ := dirBytes(ip.dir)
	win := measure(e.p, e.w.clients, ip.base, seconds/2, nil)
	if in.stats1, err = fetchStats(ip.base); err != nil {
		return nil, err
	}
	in.fs = ip.counts().minus(fs0)
	dir1, _ := dirBytes(ip.dir)
	in.dirGrowth = dir1 - dir0
	ip.stop()
	problems = append(problems, e.p.check()...)

	in.win = win
	in.untracedP50 = median(turnarounds(plain.jobs(), nil))
	if in.direct, err = runDirect(e.p.direct()); err != nil {
		return nil, err
	}
	res := layerMetrics(in)
	a1, f1, errs1 := plain.counts()
	a2, f2, errs2 := win.counts()
	res.attempted, res.failed = a1+a2, f1+f2
	res.problems = append(append(append(res.problems, errs1...), errs2...), problems...)
	res.problems = append(res.problems, in.direct.problems...)
	return res, nil
}

// directTotals sums the direct module calls over the sampled jobs.
type directTotals struct {
	cases                                             int
	decode, intern, hier, evaluate, are, ndjson, json float64
	// runEval is run + evaluate + ARE time; slotSecs is each sampled
	// job's server exec time times the scheduler workers it could use.
	runEval, slotSecs float64
	layers            map[string]float64
	merges, clusters  int
	// problems are failed checks on the direct calls' counts.
	problems []string
}

// runDirect replays the sampled jobs' inputs through each module's public
// entry point, timing each call.
func runDirect(cases []directCase) (*directTotals, error) {
	d := &directTotals{layers: map[string]float64{}}
	for _, c := range cases {
		d.cases++
		t := time.Now()
		ds, err := dataset.ReadJSON(bytes.NewReader(c.body))
		d.decode += time.Since(t).Seconds()
		if err != nil {
			return nil, err
		}
		t = time.Now()
		dataset.Intern(ds)
		d.intern += time.Since(t).Seconds()
		t = time.Now()
		if _, err := gen.Hierarchies(ds, fanout); err != nil {
			return nil, err
		}
		if _, err := gen.ItemHierarchy(ds, fanout); err != nil {
			return nil, err
		}
		d.hier += time.Since(t).Seconds()
		w, err := parseWorkloadLines(c.workload)
		if err != nil {
			return nil, err
		}
		ks := []float64{0}
		if c.sweep != nil {
			sw := c.sweep.sweep()
			ks = sw.Values()
		}
		items := 0
		for _, cr := range c.configs {
			for _, k := range ks {
				if k > 0 {
					cr.K = int(k)
				}
				items++
				if err := d.runOne(ds, cr, w); err != nil {
					return nil, err
				}
			}
		}
		d.slotSecs += float64(min(items, 2)) * c.rec.exec()
	}
	return d, nil
}

func (d *directTotals) runOne(ds *dataset.Dataset, cr configReq, w *query.Workload) error {
	cfg, err := engineConfig(ds, cr, nil)
	if err != nil {
		return err
	}
	res := engine.RunCtx(context.Background(), ds, cfg)
	if res.Err != nil {
		return res.Err
	}
	run := runJSON{Mode: cfg.Mode.String(), RuntimeSec: res.Runtime.Seconds()}
	for _, p := range res.Phases {
		run.Phases = append(run.Phases, phaseJSON{Name: p.Name, DurationMS: float64(p.Duration) / float64(time.Millisecond)})
	}
	addAlgoLayers(d.layers, run)
	t := time.Now()
	if _, err := engine.Evaluate(ds, res.Anonymized, cfg); err != nil {
		return err
	}
	ev := time.Since(t).Seconds()
	d.evaluate += ev
	are := 0.0
	if w != nil {
		t = time.Now()
		if _, err := query.ARE(w, ds, res.Anonymized, cfg.Hierarchies, cfg.ItemHierarchy); err != nil {
			return err
		}
		are = time.Since(t).Seconds()
		d.are += are
	}
	d.runEval += res.Runtime.Seconds() + ev + are
	t = time.Now()
	if err := export.RecordsNDJSON(io.Discard, res.Records); err != nil {
		return err
	}
	d.ndjson += time.Since(t).Seconds()
	t = time.Now()
	if err := export.ResultsJSON(io.Discard, []*engine.Result{res}); err != nil {
		return err
	}
	if err := res.Anonymized.WriteJSON(io.Discard); err != nil {
		return err
	}
	d.json += time.Since(t).Seconds()
	if cfg.Mode == engine.RT {
		opts := rt.Options{
			K: cfg.K, M: cfg.M, Delta: cfg.Delta, Hierarchies: cfg.Hierarchies, ItemHierarchy: cfg.ItemHierarchy,
			RelAlgo: cfg.RelAlgo, TransAlgo: cfg.TransAlgo, Flavor: cfg.Flavor,
		}
		r, err := rt.Anonymize(ds, opts)
		if err != nil {
			return err
		}
		again, err := rt.Anonymize(ds, opts)
		if err != nil {
			return err
		}
		d.problems = append(d.problems, checkRTCounts(cr, r, again, res.Anonymized)...)
		d.merges += r.Merges
		d.clusters += r.Clusters
	}
	return nil
}

// checkRTCounts checks that rt.merges and rt.clusters are what the output
// implies: a second run repeats both exactly, and the class count lies
// between the distinct relational tuples of engine.RunCtx's output (the
// records the server returned, by the replay checks) and records / k.
func checkRTCounts(cr configReq, r, again *rt.Result, out *dataset.Dataset) []string {
	var bad []string
	if again.Merges != r.Merges || again.Clusters != r.Clusters {
		bad = append(bad, fmt.Sprintf("rt %+v: counts do not repeat: %d merges, %d clusters, then %d, %d", cr, r.Merges, r.Clusters, again.Merges, again.Clusters))
	}
	qis, _ := out.QIIndices(nil)
	tuples := map[string]bool{}
	for _, rec := range out.Records {
		key := make([]string, len(qis))
		for i, q := range qis {
			key[i] = rec.Values[q]
		}
		tuples[strings.Join(key, "\x00")] = true
	}
	if len(tuples) > r.Clusters || r.Clusters*cr.K > len(out.Records) {
		bad = append(bad, fmt.Sprintf("rt %+v: %d clusters, but the output has %d relational classes over %d records", cr, r.Clusters, len(tuples), len(out.Records)))
	}
	return bad
}

// addAlgoLayers attributes one run's measured time to the algorithm
// layers: RT runs by phase, single-side runs wholesale.
func addAlgoLayers(layers map[string]float64, run runJSON) {
	switch run.Mode {
	case "rt":
		for _, p := range run.Phases {
			name := map[string]string{"relational": "relational.run_s", "merge": "rt.merge_s", "transaction": "rt.transaction_s", "recode": "rt.recode_s"}[p.Name]
			if name != "" {
				layers[name] += p.DurationMS / 1000
			}
		}
	case "relational":
		layers["relational.run_s"] += run.RuntimeSec
	case "transaction":
		layers["transaction.run_s"] += run.RuntimeSec
	}
}
