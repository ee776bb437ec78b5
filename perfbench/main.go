// Command perfbench is SECRETA's end-to-end benchmark. It starts the
// secreta-serve binary with a fresh data directory, drives one seeded
// workload over loopback HTTP from closed-loop clients for a fixed time,
// checks every output, and prints each metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 151, "failed": 0, "metrics": {...}}
//
// With -trace 1 it instead splits the run by layer: half the time against
// the child process (untraced, for the tracing-overhead comparison) and
// half against the server hosted in-process, followed by direct calls to
// each module on the workload's inputs. Build and run it from the
// repository root with perfbench/run.sh; NOTES.md explains the workloads
// and metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"time"
)

// setupRepeats is how many times a run boots a fresh server and repeats
// set-up; setup_s is their median.
const setupRepeats = 7

var errListDone = errors.New("job list exhausted")

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: rt-cluster, compare-sweep or service-churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1: per-layer traced run instead of end-to-end metrics")
	bin := flag.String("bin", "", "secreta-serve binary")
	work := flag.String("work", "", "directory that holds the per-run data directories")
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	w, err := findWorkload(*name)
	if err != nil {
		return fail(err)
	}
	if *bin == "" || *work == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fail(errors.New("need -bin, -work, a positive -seconds and -trace 0 or 1"))
	}
	if _, err := os.Stat(*bin); err != nil {
		return fail(err)
	}
	dataRoot, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dataRoot)
	stopOnSignal(dataRoot)

	fmt.Printf("workload %s  seed %d  seconds %g  trace %d  poll %v\n", w.name, *seed, *seconds, *trace, pollInterval)
	p, err := w.newPlan(*seed)
	if err != nil {
		return fail(err)
	}
	env := &runEnv{w: w, p: p, bin: *bin, dataRoot: dataRoot}
	var out *result
	if *trace == 1 {
		out, err = env.traced(*seconds)
	} else {
		out, err = env.endToEnd(*seconds)
	}
	if err != nil {
		return fail(err)
	}
	return out.print()
}

// runEnv is one benchmark invocation's workload, plan and paths.
type runEnv struct {
	w        *workload
	p        plan
	bin      string
	dataRoot string
}

// children tracks the live server processes so a signal can stop them.
var children struct {
	sync.Mutex
	live map[*child]bool
}

func track(c *child, live bool) {
	children.Lock()
	defer children.Unlock()
	if children.live == nil {
		children.live = make(map[*child]bool)
	}
	if live {
		children.live[c] = true
	} else {
		delete(children.live, c)
	}
}

// stopOnSignal stops every live server and removes the data directories
// when the benchmark is interrupted.
func stopOnSignal(dataRoot string) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		children.Lock()
		for c := range children.live {
			c.stop()
		}
		children.Unlock()
		os.RemoveAll(dataRoot)
		os.Exit(1)
	}()
}

// boot starts a fresh child server for the workload.
func (e *runEnv) boot(i int) (*child, error) {
	dir := ""
	if e.w.durable {
		dir = filepath.Join(e.dataRoot, fmt.Sprintf("data-%d", i))
	}
	c, err := startChild(e.bin, e.w.serverFlags(), dir)
	if err == nil {
		track(c, true)
	}
	return c, err
}

func (e *runEnv) shutdown(c *child) {
	c.stop()
	track(c, false)
	if c.dataDir != "" {
		os.RemoveAll(c.dataDir)
	}
}

func (w *workload) serverFlags() []string {
	if w.cacheEntries != 0 {
		return []string{"-cache-entries", fmt.Sprint(w.cacheEntries)}
	}
	return nil
}

// window is what the clients recorded during one timed window.
type window struct {
	logs []*runLog
	// elapsed is the seconds the clients ran, calibration pauses excluded.
	elapsed float64
	// calib holds one calibration sample per slice.
	calib []float64
}

// sliceSeconds is how long the clients run between two calibration
// samples.
const sliceSeconds = 1.0

// measure runs the workload's clients closed-loop against base until
// seconds have passed. The window is cut into slices: at the end of each,
// every client finishes the iteration it is in, and then the benchmark
// takes one calibration sample. A child server srv is paused (SIGSTOP)
// while it does, so that nothing the server still does after the slice
// (collecting garbage, persisting) runs beside the sample; srv is nil for
// a server hosted in-process.
func measure(p plan, clients int, base string, seconds float64, srv *child) *window {
	win := &window{logs: make([]*runLog, clients)}
	cs := make([]*client, clients)
	listDone := make([]bool, clients)
	for ci := range cs {
		cs[ci] = newClient(base)
		win.logs[ci] = &runLog{}
	}
	for win.elapsed < seconds && slices.Contains(listDone, false) {
		start := time.Now()
		deadline := start.Add(time.Duration(min(sliceSeconds, seconds-win.elapsed) * float64(time.Second)))
		var wg sync.WaitGroup
		for ci := range cs {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				lg := win.logs[ci]
				for !listDone[ci] && time.Now().Before(deadline) {
					err := p.step(cs[ci], ci, lg)
					if errors.Is(err, errListDone) {
						listDone[ci] = true
					} else if err != nil {
						lg.failed++
						lg.errs = append(lg.errs, err.Error())
					}
				}
			}(ci)
		}
		wg.Wait()
		win.elapsed += time.Since(start).Seconds()
		if srv != nil {
			srv.pause(true)
		}
		win.calib = append(win.calib, calibrate())
		if srv != nil {
			srv.pause(false)
		}
	}
	for ci, c := range cs {
		win.logs[ci].uploads = c.uploads
		c.close()
	}
	return win
}

func (win *window) jobs() []*jobEntry {
	var out []*jobEntry
	for _, lg := range win.logs {
		out = append(out, lg.jobs...)
	}
	return out
}

func (win *window) uploads() []uploadRec {
	var out []uploadRec
	for _, lg := range win.logs {
		out = append(out, lg.uploads...)
	}
	return out
}

func (win *window) counts() (attempted, failed int, errs []string) {
	for _, lg := range win.logs {
		attempted += lg.attempted
		failed += lg.failed
		errs = append(errs, lg.errs...)
	}
	return
}

func turnarounds(jobs []*jobEntry, keep func(*jobEntry) bool) []float64 {
	var out []float64
	for _, j := range jobs {
		if keep == nil || keep(j) {
			out = append(out, j.rec.turnaround())
		}
	}
	return out
}

// setups is what a run's repeated set-ups measured, one entry per set-up.
type setups struct {
	// secs is the wall time from process start to set-up done; rss the
	// server's peak RSS (MiB) at that point; calib the calibration sample
	// taken just before the set-up.
	secs, rss, calib []float64
}

// setupServer boots fresh servers setupRepeats times, each after one
// calibration sample, runs the plan's set-up against each, and keeps the
// last one running.
func (e *runEnv) setupServer() (*child, setups, error) {
	var su setups
	for i := 0; ; i++ {
		su.calib = append(su.calib, calibrate())
		srv, secs, err := e.bootAndSetup(i)
		if err != nil {
			return nil, su, err
		}
		mb, err := srv.peakRSSMB()
		if err != nil {
			e.shutdown(srv)
			return nil, su, err
		}
		su.secs, su.rss = append(su.secs, secs), append(su.rss, mb)
		if i == setupRepeats-1 {
			return srv, su, nil
		}
		e.shutdown(srv)
	}
}

// bootAndSetup boots fresh server i and runs the plan's set-up on it,
// returning the seconds from process start to set-up done.
func (e *runEnv) bootAndSetup(i int) (*child, float64, error) {
	t := time.Now()
	srv, err := e.boot(i)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(srv.base)
	err = e.p.setup(c)
	c.close()
	secs := time.Since(t).Seconds()
	if err != nil {
		e.shutdown(srv)
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return srv, secs, nil
}

// endToEnd is the untraced run: every end-to-end metric.
func (e *runEnv) endToEnd(seconds float64) (*result, error) {
	srv, su, err := e.setupServer()
	if err != nil {
		return nil, err
	}
	defer e.shutdown(srv)
	dir0, _ := dirBytes(srv.dataDir) // memory-only: 0
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	win := measure(e.p, e.w.clients, srv.base, seconds, srv)
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	endRSS, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	dir1, _ := dirBytes(srv.dataDir)
	e.shutdown(srv)
	res := e2eMetrics(e2eInputs{setups: su, win: win, cpuSecs: cpu1 - cpu0, endRSS: endRSS, durable: e.w.durable, dirGrowth: dir1 - dir0})
	res.problems = append(res.problems, e.p.check()...)
	return res, nil
}

func uploadMBps(ups []uploadRec) float64 {
	var b, s float64
	for _, u := range ups {
		b += float64(u.bytes)
		s += u.secs
	}
	if s == 0 {
		return 0
	}
	return b / 1e6 / s
}
