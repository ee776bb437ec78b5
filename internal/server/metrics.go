package server

import (
	"bufio"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// GET /metrics: the server's operational counters in Prometheus text
// exposition format 0.0.4, hand-rendered (the repo takes no dependencies)
// from the same aggregates GET /stats serves as JSON. Every family is
// emitted with # HELP / # TYPE headers, label values are escaped, and
// ordering is deterministic so diffs of two scrapes are meaningful.
//
// The handler sits behind the readiness gate like every data route: while
// journal replay runs the server answers 503, which scrapers surface as a
// down target — exactly right, the server is not serving.

// promContentType is the exposition format version Prometheus expects.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// promWriter renders one exposition document. family() starts a metric
// family; sample() emits one sample line for the current family.
type promWriter struct {
	w      *bufio.Writer
	family string
}

func (p *promWriter) start(name, typ, help string) {
	p.family = name
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample writes `name{labels} value`. suffix extends the family name
// (summary _sum/_count); labels are emitted in the given order.
func (p *promWriter) sample(suffix string, labels [][2]string, v float64) {
	p.w.WriteString(p.family)
	p.w.WriteString(suffix)
	if len(labels) > 0 {
		p.w.WriteByte('{')
		for i, kv := range labels {
			if i > 0 {
				p.w.WriteByte(',')
			}
			fmt.Fprintf(p.w, "%s=%q", kv[0], escapeLabel(kv[1]))
		}
		p.w.WriteByte('}')
	}
	p.w.WriteByte(' ')
	p.w.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	p.w.WriteByte('\n')
}

// escapeLabel applies the exposition-format label escapes: backslash,
// double quote, and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// jobStates fixes the order /metrics reports job-state gauges in; every
// state appears on every scrape (zero-filled) so dashboards never see a
// series blink in and out.
var jobStates = []Status{
	StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled, StatusTimedOut,
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", promContentType)
	bw := bufio.NewWriterSize(w, 16<<10)
	p := &promWriter{w: bw}

	counts := s.jobs.counts()
	p.start("secreta_jobs", "gauge", "Jobs in the job table by state.")
	for _, st := range jobStates {
		p.sample("", [][2]string{{"state", string(st)}}, float64(counts[st]))
	}

	p.start("secreta_queue_depth", "gauge", "Jobs waiting for an admission slot.")
	p.sample("", nil, float64(counts[StatusQueued]))
	p.start("secreta_job_slots", "gauge", "Admission slots configured (max concurrent jobs).")
	p.sample("", nil, float64(cap(s.slots)))
	p.start("secreta_job_slots_in_use", "gauge", "Admission slots currently held by running jobs.")
	p.sample("", nil, float64(len(s.slots)))

	phases := s.phases.quantiles()
	names := make([]string, 0, len(phases))
	for n := range phases {
		names = append(names, n)
	}
	sort.Strings(names)
	p.start("secreta_phase_latency_seconds", "summary",
		"Per-phase execution latency (rolling-window quantiles, lifetime sum/count).")
	for _, n := range names {
		q := phases[n]
		p.sample("", [][2]string{{"phase", n}, {"quantile", "0.5"}}, q.Q50)
		p.sample("", [][2]string{{"phase", n}, {"quantile", "0.95"}}, q.Q95)
		p.sample("_sum", [][2]string{{"phase", n}}, q.SumSec)
		p.sample("_count", [][2]string{{"phase", n}}, float64(q.Count))
	}

	cs := s.cacheStats()
	p.start("secreta_cache_hits_total", "counter", "Result cache hits (RAM and disk).")
	p.sample("", nil, float64(cs.Hits))
	p.start("secreta_cache_misses_total", "counter", "Result cache misses (computed fresh).")
	p.sample("", nil, float64(cs.Misses))
	p.start("secreta_cache_disk_hits_total", "counter", "Cache hits read back from the result store.")
	p.sample("", nil, float64(cs.DiskHits))
	p.start("secreta_cache_disk_errors_total", "counter", "Failed result-file reads and writes (degraded, never fatal).")
	p.sample("", nil, float64(cs.DiskErrors))
	p.start("secreta_cache_evictions_total", "counter", "Cache entries evicted by the size caps.")
	p.sample("", nil, float64(cs.Evictions))
	p.start("secreta_cache_rejected_total", "counter", "Cache puts refused for exceeding the byte cap.")
	p.sample("", nil, float64(cs.Rejected))
	p.start("secreta_cache_entries", "gauge", "Result cache entries resident in RAM.")
	p.sample("", nil, float64(cs.Entries))
	p.start("secreta_cache_bytes", "gauge", "Result cache bytes resident in RAM.")
	p.sample("", nil, float64(cs.Bytes))

	rs := s.registry.Stats()
	p.start("secreta_registry_datasets", "gauge", "Datasets resident in the upload registry.")
	p.sample("", nil, float64(rs.Entries))
	p.start("secreta_registry_bytes", "gauge", "Bytes resident in the upload registry.")
	p.sample("", nil, float64(rs.Bytes))
	p.start("secreta_registry_pinned", "gauge", "Registry entries pinned by in-flight jobs.")
	p.sample("", nil, float64(rs.Pinned))
	p.start("secreta_registry_hits_total", "counter", "Registry lookups that found their dataset.")
	p.sample("", nil, float64(rs.Hits))
	p.start("secreta_registry_misses_total", "counter", "Registry lookups that missed.")
	p.sample("", nil, float64(rs.Misses))
	p.start("secreta_registry_evictions_total", "counter", "Registry entries evicted by the caps.")
	p.sample("", nil, float64(rs.Evictions))

	p.start("secreta_streaming_active", "gauge", "NDJSON result streams being served right now.")
	p.sample("", nil, float64(s.streams.active.Load()))
	p.start("secreta_streaming_served_total", "counter", "NDJSON result streams served to completion.")
	p.sample("", nil, float64(s.streams.served.Load()))
	p.start("secreta_streaming_client_disconnects_total", "counter", "NDJSON streams cut short by the client.")
	p.sample("", nil, float64(s.streams.disconnects.Load()))

	if s.st != nil {
		ss := s.st.Stats()
		kinds := []struct {
			kind         string
			count, bytes float64
		}{
			{"datasets", float64(ss.Datasets.Count), float64(ss.Datasets.Bytes)},
			{"results", float64(ss.Results.Count), float64(ss.Results.Bytes)},
			{"result_streams", float64(ss.ResultStreams.Count), float64(ss.ResultStreams.Bytes)},
			{"traces", float64(ss.Traces.Count), float64(ss.Traces.Bytes)},
			{"result_cache", float64(ss.ResultCache.Count), float64(ss.ResultCache.Bytes)},
		}
		p.start("secreta_store_blob_count", "gauge", "Durable blobs on disk by kind.")
		for _, k := range kinds {
			p.sample("", [][2]string{{"kind", k.kind}}, k.count)
		}
		p.start("secreta_store_blob_bytes", "gauge", "Durable blob bytes on disk by kind.")
		for _, k := range kinds {
			p.sample("", [][2]string{{"kind", k.kind}}, k.bytes)
		}
		p.start("secreta_store_journal_jobs", "gauge", "Jobs tracked by the durable journal.")
		p.sample("", nil, float64(ss.Journal.Jobs))
		p.start("secreta_store_wal_records", "gauge", "WAL records appended since the last snapshot.")
		p.sample("", nil, float64(ss.Journal.WALRecords))
		p.start("secreta_store_wal_bytes", "gauge", "WAL bytes on disk since the last snapshot.")
		p.sample("", nil, float64(ss.Journal.WALBytes))
		p.start("secreta_store_trim_errors_total", "counter", "Failed deletions/listings across trim and GC passes.")
		p.sample("", nil, float64(ss.TrimErrors))
		p.start("secreta_store_io_retries_total", "counter", "Transient I/O errors absorbed by the store's retry layer.")
		p.sample("", nil, float64(ss.IORetries))

		d := s.degraded.view()
		p.start("secreta_degraded", "gauge", "1 while the server is in degraded read-only mode after a permanent storage fault.")
		degraded := 0.0
		if d.Active {
			degraded = 1
		}
		p.sample("", nil, degraded)
		p.start("secreta_degraded_entered_total", "counter", "Healthy-to-degraded transitions since boot.")
		p.sample("", nil, float64(d.Entered))
		p.start("secreta_degraded_probes_total", "counter", "Storage recovery probes run while degraded.")
		p.sample("", nil, float64(d.Probes))
	}

	if s.tenants != nil {
		views := s.tenants.views(s.jobs.countsByTenant())
		p.start("secreta_tenant_jobs", "gauge", "Jobs in the job table by tenant and state.")
		for _, tv := range views {
			for _, st := range jobStates {
				p.sample("", [][2]string{{"tenant", tv.ID}, {"state", string(st)}}, float64(tv.JobsByState[st]))
			}
		}
		p.start("secreta_tenant_stored_bytes", "gauge", "Dataset bytes claimed by each tenant (the stored-bytes quota unit).")
		for _, tv := range views {
			p.sample("", [][2]string{{"tenant", tv.ID}}, float64(tv.StoredBytes))
		}
		p.start("secreta_tenant_weight", "gauge", "Weighted round-robin dispatch weight per tenant.")
		for _, tv := range views {
			p.sample("", [][2]string{{"tenant", tv.ID}}, float64(tv.Weight))
		}
		p.start("secreta_tenant_rate_limited_total", "counter", "POSTs answered 429 by the tenant's token bucket.")
		for _, tv := range views {
			p.sample("", [][2]string{{"tenant", tv.ID}}, float64(tv.RateLimitedTotal))
		}
		p.start("secreta_tenant_quota_rejects_total", "counter", "Requests rejected by a tenant quota (stored bytes or pending jobs).")
		for _, tv := range views {
			p.sample("", [][2]string{{"tenant", tv.ID}}, float64(tv.QuotaRejectsTotal))
		}
		p.start("secreta_tenant_dispatched_total", "counter", "Job slots granted to each tenant by the round-robin dispatcher.")
		for _, tv := range views {
			p.sample("", [][2]string{{"tenant", tv.ID}}, float64(tv.DispatchedTotal))
		}
	}

	if s.gc != nil {
		g := s.gc.view()
		p.start("secreta_gc_max_bytes", "gauge", "Configured data-directory byte cap (-data-max-bytes).")
		p.sample("", nil, float64(g.MaxBytes))
		p.start("secreta_gc_usage_bytes", "gauge", "Data-directory bytes measured by the last retention sweep.")
		p.sample("", nil, float64(g.UsageBytes))
		p.start("secreta_gc_sweeps_total", "counter", "Retention sweeps run.")
		p.sample("", nil, float64(g.Sweeps))
		p.start("secreta_gc_evicted_jobs_total", "counter", "Terminal jobs evicted (with results and traces) by retention sweeps.")
		p.sample("", nil, float64(g.EvictedJobs))
		p.start("secreta_gc_evicted_datasets_total", "counter", "Unreferenced dataset blobs evicted by retention sweeps.")
		p.sample("", nil, float64(g.EvictedDatasets))
		p.start("secreta_gc_cache_trimmed_total", "counter", "Disk cache entries dropped by retention sweeps.")
		p.sample("", nil, float64(g.CacheTrimmed))
		p.start("secreta_gc_errors_total", "counter", "Evictions that failed (stuck files skipped, never wedging the sweep).")
		p.sample("", nil, float64(g.Errors))
	}

	p.start("secreta_ready", "gauge", "1 once journal replay has completed and traffic is admitted.")
	ready := 0.0
	if s.ready.Load() {
		ready = 1
	}
	p.sample("", nil, ready)

	bw.Flush()
}
