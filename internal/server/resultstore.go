package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"secreta/internal/dataset"
	"secreta/internal/engine"
	"secreta/internal/export"
	"secreta/internal/faultfs"
	"secreta/internal/obs"
	"secreta/internal/store"
	"secreta/internal/timing"
)

// storedMeta is frame 0 of a result file: what every job with the same
// engine cache key has in common, runtime and phases included so a disk
// hit can rebuild the results array under the caller's label.
type storedMeta struct {
	export.StreamHeader
	Runtime    time.Duration     `json:"runtime_ns"`
	Phases     []timing.Phase    `json:"phases,omitempty"`
	Indicators engine.Indicators `json:"indicators"`
}

// anonymize runs one anonymize job's configuration through the shared
// RAM cache (engine.Cache). A durable server looks the key up in RAM and
// then in its result store itself, in that order and before computing,
// so an entry evicted from RAM in between is still a (disk) hit.
func (s *Server) anonymize(ctx context.Context, ds *dataset.Dataset, cfg engine.Config) (*jobOutcome, error) {
	var res *engine.Result
	cacheHit, addr := false, ""
	if s.st != nil {
		key := engine.CacheKey(ds, cfg)
		addr = store.ResultAddr(key)
		if r, ok := s.cache.Lookup(key, cfg); ok {
			obs.FromCtx(ctx).Event("cache_hit", obs.String("config", cfg.DisplayLabel()))
			res, cacheHit = r, true
		} else if out := s.diskHit(ctx, key, addr, cfg); out != nil {
			return out, nil
		}
	}
	var err error
	if res == nil {
		if res, cacheHit, err = s.execute(ctx, s.sched, ds, cfg); err != nil {
			return nil, err
		}
	}
	out, err := anonymizeOutcome(res, cacheHit)
	if out != nil {
		out.addr = addr
	}
	return out, err
}

// diskHit answers from the result file at addr, keeping the reference it
// takes for the job and putting the result in the RAM cache, or returns
// nil when there is no readable file (a failed read is counted).
func (s *Server) diskHit(ctx context.Context, key, addr string, cfg engine.Config) *jobOutcome {
	if !s.st.ResultFiles.Acquire(addr) {
		return nil
	}
	res, err := s.loadStored(addr, cfg)
	var out *jobOutcome
	if err == nil {
		out, err = anonymizeOutcome(res, true)
	}
	if err != nil {
		s.st.ResultFiles.Release(addr)
		s.countDiskError(err)
		s.log().Warn("reading stored result failed; recomputing", "addr", addr, "err", err)
		return nil
	}
	s.cache.Put(key, res)
	s.disk.hits.Add(1)
	obs.FromCtx(ctx).Event("cache_hit", obs.String("config", cfg.DisplayLabel()), obs.String("via", "disk"))
	out.addr, out.held = addr, true
	return out
}

// readStoredMeta reads frame 0 of the result file at addr.
func (s *Server) readStoredMeta(addr string) (*storedMeta, error) {
	r, err := s.st.ResultFiles.Open(addr)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var m storedMeta
	frame, err := r.Next()
	if err == nil {
		err = json.Unmarshal(frame, &m)
	}
	if err != nil {
		return nil, fmt.Errorf("reading result meta: %w", err)
	}
	return &m, nil
}

// loadStored rebuilds an engine result from the file at addr under the
// caller's config (content-equal to the producer's: the address is
// derived from both), reassembling the dataset JSON around the records.
func (s *Server) loadStored(addr string, cfg engine.Config) (*engine.Result, error) {
	m, err := s.readStoredMeta(addr)
	if err != nil {
		return nil, err
	}
	attrs, _ := json.Marshal(m.Attributes)
	trans, _ := json.Marshal(m.Transaction)
	var doc bytes.Buffer
	fmt.Fprintf(&doc, `{"attributes":%s,"transaction":%s,"records":[`, attrs, trans)
	sep := ""
	err = diskRecords{files: s.st.ResultFiles, addr: addr}.stream(func(line []byte) error {
		doc.WriteString(sep)
		doc.Write(line)
		sep = ","
		return nil
	})
	if err != nil {
		return nil, err
	}
	doc.WriteString("]}")
	ds, err := dataset.ReadJSON(&doc)
	if err != nil {
		return nil, err
	}
	return &engine.Result{Config: cfg, Anonymized: ds, Records: ds,
		Runtime: m.Runtime, Phases: m.Phases, Indicators: m.Indicators}, nil
}

// holdResult gives a done anonymize job its reference on the result file
// at outcome.addr, writing the file if it is missing. A fresh computation
// replaces an existing file: one is only there if reading it back failed
// or a RAM entry was evicted between lookups. A failed write is a store
// fault; the job then answers from memory.
func (s *Server) holdResult(id string, outcome *jobOutcome, span obs.Span) bool {
	if outcome.held {
		return true
	}
	_, err := s.st.ResultFiles.Put(outcome.addr, !outcome.meta.CacheHit, func(cw *store.ChunkWriter) error {
		return writeResultFrames(cw, outcome.stored, outcome.records)
	})
	if err != nil {
		s.countDiskError(err)
		s.log().Warn("persisting result stream failed", "job_id", id, "err", err)
		span.Event("fault: result stream: " + err.Error())
		s.storeFault("result stream persist", err)
	}
	return err == nil
}

// writeResultFrames writes a result file: frame 0 the stored meta, then
// record lines batched into chunkTarget-sized frames.
func writeResultFrames(cw *store.ChunkWriter, meta *storedMeta, src dataset.RecordSource) error {
	metaLine, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	if err := cw.WriteFrame(metaLine); err != nil {
		return err
	}
	buf := make([]byte, 0, chunkTarget+4096)
	src.ScanRecords(func(i int, rec dataset.Record) bool {
		if buf, err = export.AppendRecordJSON(buf, rec); err != nil {
			return false
		}
		buf = append(buf, '\n')
		if len(buf) >= chunkTarget {
			err = cw.WriteFrame(buf)
			buf = buf[:0]
		}
		return err == nil
	})
	if err == nil && len(buf) > 0 {
		err = cw.WriteFrame(buf)
	}
	return err
}

// countDiskError records a failed result-file read or write.
func (s *Server) countDiskError(err error) {
	s.disk.errors.Add(1)
	if faultfs.IsTransient(err) {
		s.disk.transient.Add(1)
	}
}

// cacheView is the cache block of /stats, /metrics and /dashboard/data.
// Hits counts RAM and disk hits. DiskErrors counts failed result-file
// reads and writes (degraded, never fatal), DiskTransient its transient
// subset — a flaky disk shows there, a broken one only in DiskErrors.
type cacheView struct {
	engine.CacheStats
	DiskHits      uint64 `json:"disk_hits"`
	DiskErrors    uint64 `json:"disk_errors"`
	DiskTransient uint64 `json:"disk_transient"`
}

// cacheStats snapshots the cache block.
func (s *Server) cacheStats() cacheView {
	v := cacheView{s.cache.Stats(), s.disk.hits.Load(), s.disk.errors.Load(), s.disk.transient.Load()}
	v.Hits += v.DiskHits
	return v
}
