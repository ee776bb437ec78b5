package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// pollInterval is the fixed gap between job-status polls. Every timed
// figure the benchmark reports has a median of at least 20 intervals, so
// the polling grain stays below 5% of it.
const pollInterval = time.Millisecond

// client is one closed-loop SECRETA user: a single keep-alive connection
// that submits a job, polls it and fetches its result before the next.
type client struct {
	base    string
	hc      *http.Client
	uploads []uploadRec
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response. Any status outside
// 2xx (a 429 or 5xx included) is an error: the workloads are sized so no
// request should be refused.
func (c *client) do(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// upload posts a dataset body, records the call's size and duration, and
// returns the dataset ref.
func (c *client) upload(body []byte) (string, error) {
	t := time.Now()
	out, err := c.do(http.MethodPost, "/datasets", body)
	if err != nil {
		return "", err
	}
	c.uploads = append(c.uploads, uploadRec{bytes: len(body), secs: time.Since(t).Seconds()})
	var r struct {
		Ref string `json:"dataset_ref"`
	}
	if err := json.Unmarshal(out, &r); err != nil || r.Ref == "" {
		return "", fmt.Errorf("upload answered without a dataset_ref: %s", out)
	}
	return r.Ref, nil
}

// jobView is the subset of the server's job view the benchmark reads.
type jobView struct {
	ID          string `json:"job"`
	Status      string `json:"status"`
	Error       string `json:"error"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at"`
	FinishedAt  string `json:"finished_at"`
}

// jobRec is one finished job as the client saw it: client-clock instants
// around its HTTP calls and the server's own lifecycle stamps, all on the
// same host clock.
type jobRec struct {
	sent, posted          time.Time // POST sent, POST answered
	submitted, started    time.Time // server stamps
	finished              time.Time // server stamp
	fetchStart, fetchDone time.Time // result GET sent, last byte read
	polls                 int
	result                []byte
}

func (r *jobRec) turnaround() float64 { return r.fetchDone.Sub(r.sent).Seconds() }
func (r *jobRec) submit() float64     { return r.posted.Sub(r.sent).Seconds() }
func (r *jobRec) queueWait() float64  { return r.started.Sub(r.submitted).Seconds() }
func (r *jobRec) exec() float64       { return r.finished.Sub(r.started).Seconds() }
func (r *jobRec) fetch() float64      { return r.fetchDone.Sub(r.fetchStart).Seconds() }

// covered is how much of the turnaround the layer spans cover — the POST,
// the server's queued-to-finished interval and the fetch — counting
// overlaps once. The rest is poll lag and client time.
func (r *jobRec) covered() float64 {
	spans := [][2]time.Time{{r.sent, r.posted}, {r.submitted, r.finished}, {r.fetchStart, r.fetchDone}}
	sort.Slice(spans, func(i, j int) bool { return spans[i][0].Before(spans[j][0]) })
	total := time.Duration(0)
	end := r.sent
	for _, s := range spans {
		if s[0].After(end) {
			end = s[0]
		}
		if s[1].After(end) {
			total += s[1].Sub(end)
			end = s[1]
		}
	}
	return total.Seconds()
}

// runJob submits body to path, polls the job to a terminal state at
// pollInterval and fetches its result from fetchPath ("/result" or
// "/result/stream").
func (c *client) runJob(path string, body []byte, fetchPath string) (*jobRec, error) {
	rec := &jobRec{sent: time.Now()}
	out, err := c.do(http.MethodPost, path, body)
	rec.posted = time.Now()
	if err != nil {
		return nil, err
	}
	var v jobView
	if err := json.Unmarshal(out, &v); err != nil || v.ID == "" {
		return nil, fmt.Errorf("submit answered without a job id: %s", out)
	}
	for {
		time.Sleep(pollInterval)
		out, err := c.do(http.MethodGet, "/jobs/"+v.ID, nil)
		if err != nil {
			return nil, err
		}
		rec.polls++
		if err := json.Unmarshal(out, &v); err != nil {
			return nil, fmt.Errorf("job %s: bad view: %w", v.ID, err)
		}
		if v.Status == "queued" || v.Status == "running" {
			continue
		}
		if v.Status != "done" {
			return nil, fmt.Errorf("job %s ended %s: %s", v.ID, v.Status, v.Error)
		}
		break
	}
	rec.fetchStart = time.Now()
	res, err := c.do(http.MethodGet, "/jobs/"+v.ID+fetchPath, nil)
	if err != nil {
		return nil, err
	}
	rec.fetchDone = time.Now()
	rec.result = res
	var err1, err2, err3 error
	rec.submitted, err1 = time.Parse(time.RFC3339Nano, v.SubmittedAt)
	rec.started, err2 = time.Parse(time.RFC3339Nano, v.StartedAt)
	rec.finished, err3 = time.Parse(time.RFC3339Nano, v.FinishedAt)
	if err1 != nil || err2 != nil || err3 != nil {
		return nil, fmt.Errorf("job %s: unparsable timestamps in view", v.ID)
	}
	return rec, nil
}
