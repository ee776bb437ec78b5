package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"secreta/internal/dataset"
	"secreta/internal/gen"
	"secreta/internal/query"
)

// workload is one traffic mix: the server configuration it runs against,
// how many closed-loop clients drive it, and its seeded plan.
type workload struct {
	name    string
	clients int
	// durable runs the server with a fresh -data-dir; otherwise it is
	// memory-only (the server's default).
	durable bool
	// cacheEntries caps the RAM result cache (0: server default).
	cacheEntries int
	newPlan      func(seed int64) (plan, error)
}

// plan is a workload's seeded inputs and client behaviour. setup is
// called once per fresh server and resets all client-side state; step is
// one closed-loop iteration of client ci and may only touch that
// client's state; check runs after the timed window.
type plan interface {
	setup(c *client) error
	step(c *client, ci int, lg *runLog) error
	check() []string
	// direct lists the inputs of the first few jobs, for the traced run's
	// direct calls into each module.
	direct() []directCase
}

// runLog is what one client records during the timed window.
type runLog struct {
	jobs    []*jobEntry
	uploads []uploadRec
	// attempted and failed count uploads and jobs.
	attempted, failed int
	errs              []string
}

// uploadRec is one POST /datasets call.
type uploadRec struct {
	bytes int
	secs  float64
}

type jobEntry struct {
	rec      *jobRec
	cacheHit bool
	runs     []runJSON // anonymize jobs: the result's run summary
}

// configReq mirrors the server's ConfigRequest.
type configReq struct {
	Label string  `json:"label,omitempty"`
	Algo  string  `json:"algo"`
	K     int     `json:"k"`
	M     int     `json:"m,omitempty"`
	Delta float64 `json:"delta,omitempty"`
}

type sweepReq struct {
	Param string  `json:"param"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	Step  float64 `json:"step"`
}

// directCase is one finished job's inputs, replayed by direct module
// calls, and the job as the client saw it.
type directCase struct {
	body     []byte // uploaded dataset JSON
	configs  []configReq
	sweep    *sweepReq
	workload []string
	rec      *jobRec
}

var workloads = []*workload{
	{name: "rt-cluster", clients: 1, newPlan: newRTPlan},
	{name: "compare-sweep", clients: 1, newPlan: newComparePlan},
	{name: "service-churn", clients: 2, durable: true, cacheEntries: 8, newPlan: newChurnPlan},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// genDataset generates a census dataset and its upload body.
func genDataset(seed int64, records, items int) (*dataset.Dataset, []byte, error) {
	ds := gen.Census(gen.Config{Records: records, Items: items, Seed: seed})
	var b bytes.Buffer
	if err := ds.WriteJSON(&b); err != nil {
		return nil, nil, err
	}
	return ds, b.Bytes(), nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of strings and numbers are marshaled
	}
	return b
}

// ---- rt-cluster ----

// rt-cluster: one client runs distinct cluster+apriori/rmerger jobs over a
// fixed list of (dataset, k, delta), so no job is a cache hit, and
// streams each result back as NDJSON. Relational clustering and the RT
// merge dominate each job. Many small datasets, rather than a few large
// ones, keep a run's figures from hinging on one seed's data.
const (
	rtDatasets = 31 // prime, so datasets and the 10 k values pair up fully
	rtRecords  = 2000
	rtItems    = 40
	rtM        = 2
	rtKs       = 10
	rtDeltas   = 50
	// rtListLen bounds the distinct job list: far more than a run at
	// today's speed completes (about 200), so a much faster build still
	// never repeats a job and never turns a run into cache hits.
	rtListLen = rtDatasets * rtKs * rtDeltas
)

type rtPlan struct {
	bodies [][]byte
	refs   []string
	next   int
	done   []doneJob
}

// doneJob is a finished job's index in the plan's list and its raw result,
// kept for the checks after the timed window.
type doneJob struct {
	job int
	raw []byte
	rec *jobRec
}

func newRTPlan(seed int64) (plan, error) {
	p := &rtPlan{}
	for i := 0; i < rtDatasets; i++ {
		_, body, err := genDataset(seed*1000+int64(i), rtRecords, rtItems)
		if err != nil {
			return nil, err
		}
		p.bodies = append(p.bodies, body)
	}
	return p, nil
}

// rtJob maps a job index to its dataset and parameters. Dataset and k
// both cycle with the job index, so any 10 consecutive jobs cover every k
// and any 31 every dataset, whatever prefix of the list a run completes.
// (dataset, k) repeats every 310 jobs; delta is a bijection of that block
// number for each pair, so every job in the list is distinct.
func rtJob(j int) (ds int, cfg configReq) {
	a, b, c := j%rtDatasets, j%rtKs, j/(rtDatasets*rtKs)
	d := (17*c + 7*b + 3*a) % rtDeltas
	return a, configReq{Algo: "cluster+apriori/rmerger", K: 3 + b, M: rtM, Delta: 0.2 + 0.014*float64(d)}
}

func (p *rtPlan) setup(c *client) error {
	p.refs, p.next, p.done = nil, 0, nil
	for _, body := range p.bodies {
		ref, err := c.upload(body)
		if err != nil {
			return err
		}
		p.refs = append(p.refs, ref)
	}
	// Warm-up on a configuration outside the job list.
	req := mustJSON(map[string]any{"dataset_ref": p.refs[0], "config": configReq{Algo: "cluster+apriori/rmerger", K: 2, M: rtM, Delta: 0.5}})
	_, err := c.runJob("/anonymize", req, "/result/stream")
	return err
}

func (p *rtPlan) step(c *client, _ int, lg *runLog) error {
	if p.next >= rtListLen {
		return errListDone
	}
	j := p.next
	p.next++
	ds, cfg := rtJob(j)
	lg.attempted++
	rec, err := c.runJob("/anonymize", mustJSON(map[string]any{"dataset_ref": p.refs[ds], "config": cfg}), "/result/stream")
	if err != nil {
		return err
	}
	hdr, err := parseStreamHeader(rec.result)
	if err != nil {
		return err
	}
	lg.jobs = append(lg.jobs, &jobEntry{rec: rec, cacheHit: hdr.CacheHit, runs: hdr.runs})
	p.done = append(p.done, doneJob{job: j, raw: rec.result, rec: rec})
	rec.result = nil
	return nil
}

func (p *rtPlan) direct() []directCase {
	var out []directCase
	for _, d := range p.done[:min(len(p.done), 4)] {
		ds, cfg := rtJob(d.job)
		out = append(out, directCase{body: p.bodies[ds], configs: []configReq{cfg}, rec: d.rec})
	}
	return out
}

// ---- compare-sweep ----

// compare-sweep: one client runs POST /compare jobs, each sweeping k over
// three points for a pair of configurations with a seeded COUNT-query
// workload, so every point computes ARE. Pairs put one slow relational
// algorithm beside a fast one so the jobs cost about the same.
const (
	cmpDatasets = 40 // coprime with the 3 pairs: every pair meets every dataset
	cmpRecords  = 2000
	cmpItems    = 40
	cmpQueries  = 8
)

var cmpPairs = [][2]string{
	{"topdown", "apriori"},
	{"bottomup", "lra"},
	{"incognito", "topdown+apriori/rmerger"},
}

var cmpSweep = sweepReq{Param: "k", Start: 4, End: 12, Step: 4}

type comparePlan struct {
	bodies    [][]byte
	workloads [][]string
	refs      []string
	next      int
	done      []doneJob
}

func newComparePlan(seed int64) (plan, error) {
	p := &comparePlan{}
	for i := 0; i < cmpDatasets; i++ {
		ds, body, err := genDataset(seed*1000+500+int64(i), cmpRecords, cmpItems)
		if err != nil {
			return nil, err
		}
		// The query seed is the dataset's index, not the run seed: every
		// run poses the same analyst workload (which attributes and which
		// domain positions each query picks) to freshly seeded data. A
		// query's ARE cost varies several-fold with its shape, and letting
		// the run seed redraw the shapes made whole runs ~18% slower or
		// faster.
		w, err := query.Generate(ds, query.GenOptions{Queries: cmpQueries, Seed: int64(i)})
		if err != nil {
			return nil, err
		}
		var lines bytes.Buffer
		if err := w.Write(&lines); err != nil {
			return nil, err
		}
		p.bodies = append(p.bodies, body)
		p.workloads = append(p.workloads, strings.Split(strings.TrimSpace(lines.String()), "\n"))
	}
	return p, nil
}

// cmpJob maps a job index to its dataset and configuration pair. The
// server never caches /compare, so the 120 combinations simply cycle.
func cmpJob(j int) (int, []configReq) {
	pair := cmpPairs[j%len(cmpPairs)]
	cfgs := make([]configReq, len(pair))
	for i, algo := range pair {
		cfgs[i] = configReq{Algo: algo, K: 4, M: 2, Delta: 0.5}
	}
	return j % cmpDatasets, cfgs
}

func (p *comparePlan) request(j int) []byte {
	ds, cfgs := cmpJob(j)
	return mustJSON(map[string]any{"dataset_ref": p.refs[ds], "configs": cfgs, "sweep": cmpSweep, "workload": p.workloads[ds]})
}

func (p *comparePlan) setup(c *client) error {
	p.refs, p.next, p.done = nil, 0, nil
	for _, body := range p.bodies {
		ref, err := c.upload(body)
		if err != nil {
			return err
		}
		p.refs = append(p.refs, ref)
	}
	_, err := c.runJob("/compare", p.request(0), "/result")
	return err
}

func (p *comparePlan) step(c *client, _ int, lg *runLog) error {
	j := p.next
	p.next++
	lg.attempted++
	rec, err := c.runJob("/compare", p.request(j), "/result")
	if err != nil {
		return err
	}
	lg.jobs = append(lg.jobs, &jobEntry{rec: rec})
	p.done = append(p.done, doneJob{job: j, raw: rec.result, rec: rec})
	rec.result = nil
	return nil
}

func (p *comparePlan) direct() []directCase {
	var out []directCase
	for _, d := range p.done[:min(len(p.done), len(cmpPairs))] {
		ds, cfgs := cmpJob(d.job)
		sw := cmpSweep
		out = append(out, directCase{body: p.bodies[ds], configs: cfgs, sweep: &sw, workload: p.workloads[ds], rec: d.rec})
	}
	return out
}

// ---- service-churn ----

// service-churn: two clients against a durable server whose RAM result
// cache holds fewer entries than the working set. Each iteration, in
// seeded order with equal shares, uploads a fresh dataset and runs a job
// on it, runs a new configuration on one of the client's datasets, or
// resubmits an earlier (dataset, configuration) pair, which the server
// must answer from its cache (mostly the disk cache) with the original
// bytes. Fetches alternate between the buffered and the NDJSON
// representation.
const (
	churnRecords = 2000
	churnItems   = 30
	// churnSetupDatasets are uploaded per client during set-up, so the
	// first "existing dataset" draw always has a choice.
	churnSetupDatasets = 2
)

type churnPlan struct {
	seed    int64
	clients [2]*churnClient
	// first records the inputs of client 0's first new jobs, for direct().
	first []directCase
}

type churnClient struct {
	rng      *rand.Rand
	actions  []int // the rest of the current block of the three actions
	datasets []*churnDataset
	history  []churnPair
	fresh    int // fresh datasets generated so far
	fetches  int
	// crossChecked counts cache hits fetched in the other representation
	// than their original.
	crossChecked int
	problems     []string
}

type churnDataset struct {
	ref     string
	body    []byte // kept only for client 0's first datasets
	configs int    // configurations run so far
}

type churnPair struct {
	ref    string
	cfg    configReq
	digest [32]byte
	stream bool
}

func newChurnPlan(seed int64) (plan, error) { return &churnPlan{seed: seed}, nil }

// churnConfig is a dataset's n-th configuration: topdown and apriori
// alternate, k grows every two.
func churnConfig(n int) configReq {
	k := 2 + n/2
	if n%2 == 0 {
		return configReq{Algo: "topdown", K: k}
	}
	return configReq{Algo: "apriori", K: k, M: 2}
}

func (p *churnPlan) freshDataset(ci int, cl *churnClient) ([]byte, error) {
	_, body, err := genDataset(p.seed*1000000+int64(ci)*100000+int64(cl.fresh), churnRecords, churnItems)
	cl.fresh++
	return body, err
}

func (p *churnPlan) setup(c *client) error {
	p.first = nil
	for ci := range p.clients {
		cl := &churnClient{rng: rand.New(rand.NewSource(p.seed*10 + int64(ci)))}
		p.clients[ci] = cl
		for i := 0; i < churnSetupDatasets; i++ {
			body, err := p.freshDataset(ci, cl)
			if err != nil {
				return err
			}
			ref, err := c.upload(body)
			if err != nil {
				return err
			}
			cl.datasets = append(cl.datasets, &churnDataset{ref: ref, body: body})
		}
		if _, err := p.newJob(c, ci, cl.datasets[0], false); err != nil {
			return err
		}
	}
	return nil
}

func (p *churnPlan) step(c *client, ci int, lg *runLog) error {
	cl := p.clients[ci]
	// Each block of three iterations does each action once, in seeded
	// order, so the shares are equal in every run, not just on average.
	if len(cl.actions) == 0 {
		cl.actions = cl.rng.Perm(3)
	}
	action := cl.actions[0]
	cl.actions = cl.actions[1:]
	switch action {
	case 0:
		body, err := p.freshDataset(ci, cl)
		if err != nil {
			return err
		}
		lg.attempted++
		ref, err := c.upload(body)
		if err != nil {
			return err
		}
		ds := &churnDataset{ref: ref}
		if ci == 0 && len(p.first) < 6 {
			ds.body = body
		}
		cl.datasets = append(cl.datasets, ds)
		return p.newJobLogged(c, ci, ds, lg)
	case 1:
		return p.newJobLogged(c, ci, cl.datasets[cl.rng.Intn(len(cl.datasets))], lg)
	default: // set-up's warm-up job leaves every history non-empty
		h := cl.history[cl.rng.Intn(len(cl.history))]
		lg.attempted++
		e, res, stream, err := p.fetchJob(c, cl, h.ref, h.cfg)
		if err != nil {
			return err
		}
		lg.jobs = append(lg.jobs, e)
		switch {
		case !res.cacheHit:
			cl.problems = append(cl.problems, fmt.Sprintf("resubmitted %s %+v was not a cache hit", h.ref[:12], h.cfg))
		case res.digest() != h.digest:
			cl.problems = append(cl.problems, fmt.Sprintf("cache hit for %s %+v differs from its original", h.ref[:12], h.cfg))
		case stream != h.stream:
			cl.crossChecked++
		}
		return nil
	}
}

func (p *churnPlan) newJobLogged(c *client, ci int, ds *churnDataset, lg *runLog) error {
	lg.attempted++
	e, err := p.newJob(c, ci, ds, true)
	if err != nil {
		return err
	}
	lg.jobs = append(lg.jobs, e)
	return nil
}

// newJob runs the dataset's next configuration and remembers the pair;
// timed jobs of client 0 on fresh datasets are sampled for direct().
func (p *churnPlan) newJob(c *client, ci int, ds *churnDataset, timed bool) (*jobEntry, error) {
	cl := p.clients[ci]
	cfg := churnConfig(ds.configs)
	ds.configs++
	e, res, stream, err := p.fetchJob(c, cl, ds.ref, cfg)
	if err != nil {
		return nil, err
	}
	if res.cacheHit {
		cl.problems = append(cl.problems, fmt.Sprintf("new pair %s %+v answered from the cache", ds.ref[:12], cfg))
	}
	cl.history = append(cl.history, churnPair{ref: ds.ref, cfg: cfg, digest: res.digest(), stream: stream})
	if timed && ci == 0 && ds.body != nil && len(p.first) < 6 {
		p.first = append(p.first, directCase{body: ds.body, configs: []configReq{cfg}, rec: e.rec})
	}
	return e, nil
}

// fetchJob runs one anonymize job, alternating the result representation.
func (p *churnPlan) fetchJob(c *client, cl *churnClient, ref string, cfg configReq) (*jobEntry, *anonResult, bool, error) {
	stream := cl.fetches%2 == 1
	cl.fetches++
	path := "/result"
	if stream {
		path = "/result/stream"
	}
	rec, err := c.runJob("/anonymize", mustJSON(map[string]any{"dataset_ref": ref, "config": cfg}), path)
	if err != nil {
		return nil, nil, false, err
	}
	parse := parseBuffered
	if stream {
		parse = parseStream
	}
	res, err := parse(rec.result)
	if err != nil {
		return nil, nil, false, err
	}
	rec.result = nil
	return &jobEntry{rec: rec, cacheHit: res.cacheHit, runs: res.runs}, res, stream, nil
}

func (p *churnPlan) check() []string {
	var out []string
	cross := 0
	for _, cl := range p.clients {
		out = append(out, cl.problems...)
		cross += cl.crossChecked
	}
	if cross == 0 {
		out = append(out, "no cache hit was fetched in the other representation than its original")
	}
	return out
}

func (p *churnPlan) direct() []directCase { return p.first }
