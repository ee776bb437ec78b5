package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"

	"secreta/internal/dataset"
	"secreta/internal/engine"
	"secreta/internal/experiment"
	"secreta/internal/export"
	"secreta/internal/gen"
	"secreta/internal/privacy"
	"secreta/internal/query"
)

// fanout is the auto-generated hierarchy fanout the server defaults to.
const fanout = 4

// engineConfig builds the engine configuration the server derives from a
// config request on ds: the same spec parsing and auto-generated
// hierarchies.
func engineConfig(ds *dataset.Dataset, cr configReq, w *query.Workload) (engine.Config, error) {
	cfg, err := engine.ConfigFromSpec(cr.Algo)
	if err != nil {
		return cfg, err
	}
	cfg.Label, cfg.K, cfg.M, cfg.Delta = cr.Label, cr.K, cr.M, cr.Delta
	if cfg.Mode != engine.Transactional {
		if cfg.Hierarchies, err = gen.Hierarchies(ds, fanout); err != nil {
			return cfg, err
		}
	}
	if cfg.Mode != engine.Relational && ds.HasTransaction() {
		if cfg.ItemHierarchy, err = gen.ItemHierarchy(ds, fanout); err != nil {
			return cfg, err
		}
	}
	cfg.Workload = w
	return cfg, nil
}

func parseWorkloadLines(lines []string) (*query.Workload, error) {
	if len(lines) == 0 {
		return nil, nil
	}
	return query.Read(strings.NewReader(strings.Join(lines, "\n")))
}

// recordLines renders a result's records as the compact lines the NDJSON
// stream carries.
func recordLines(src dataset.RecordSource) ([][]byte, error) {
	var out [][]byte
	var err error
	src.ScanRecords(func(_ int, rec dataset.Record) bool {
		var line []byte
		line, err = export.AppendRecordJSON(nil, rec)
		out = append(out, line)
		return err == nil
	})
	return out, err
}

// replayed is how many of a run's first jobs are recomputed in-process
// and compared with what the server returned.
const replayed = 3

// check verifies every streamed RT result is (k,k^m)-anonymous, and that
// the first jobs' records and indicators equal an in-process run of the
// same configuration on the same bytes.
func (p *rtPlan) check() []string {
	var out []string
	for i, d := range p.done {
		res, err := parseStream(d.raw)
		if err != nil {
			out = append(out, fmt.Sprintf("rt job %d: %v", d.job, err))
			continue
		}
		_, cr := rtJob(d.job)
		if res.cacheHit {
			out = append(out, fmt.Sprintf("rt job %d was answered from the cache", d.job))
		}
		anon, err := res.dataset()
		if err != nil {
			out = append(out, fmt.Sprintf("rt job %d: %v", d.job, err))
			continue
		}
		qis, _ := anon.QIIndices(nil) // nil selects every relational attribute
		if rep := privacy.CheckRT(anon, qis, cr.K, cr.M); !rep.Holds() {
			out = append(out, fmt.Sprintf("rt job %d is not (%d,%d^%d)-anonymous: %+v", d.job, cr.K, cr.K, cr.M, rep))
		}
		if i < replayed {
			ds, _ := rtJob(d.job)
			if msg := replayAnonymize(p.bodies[ds], cr, res); msg != "" {
				out = append(out, fmt.Sprintf("rt job %d: %s", d.job, msg))
			}
		}
	}
	if len(p.done) == 0 {
		out = append(out, "no rt job finished")
	}
	return out
}

// replayAnonymize runs cr on body in-process and compares the records and
// indicators with the server's result.
func replayAnonymize(body []byte, cr configReq, got *anonResult) string {
	ds, err := dataset.ReadJSON(bytes.NewReader(body))
	if err != nil {
		return err.Error()
	}
	cfg, err := engineConfig(ds, cr, nil)
	if err != nil {
		return err.Error()
	}
	res := engine.RunCtx(context.Background(), ds, cfg)
	if res.Err != nil {
		return res.Err.Error()
	}
	lines, err := recordLines(res.Records)
	if err != nil {
		return err.Error()
	}
	if len(lines) != len(got.records) {
		return fmt.Sprintf("server returned %d records, in-process run %d", len(got.records), len(lines))
	}
	for i := range lines {
		if !bytes.Equal(lines[i], got.records[i]) {
			return fmt.Sprintf("record %d differs from the in-process run: %s vs %s", i, got.records[i], lines[i])
		}
	}
	want, _ := json.Marshal(res.Indicators) // a struct of numbers and bools
	if !bytes.Equal(want, got.runs[0].Indicators) {
		return fmt.Sprintf("indicators differ from the in-process run: %s vs %s", got.runs[0].Indicators, want)
	}
	return ""
}

// seriesDoc is the compare result document.
type seriesDoc struct {
	Series []struct {
		Label  string `json:"label"`
		Param  string `json:"param"`
		Points []struct {
			X          float64         `json:"x"`
			RuntimeSec float64         `json:"runtime_s"`
			Indicators json.RawMessage `json:"indicators"`
			Error      string          `json:"error"`
		} `json:"points"`
	} `json:"series"`
}

// withoutRuntimes blanks the measured runtimes, which legitimately differ
// between runs.
func (d *seriesDoc) withoutRuntimes() *seriesDoc {
	for i := range d.Series {
		for j := range d.Series[i].Points {
			d.Series[i].Points[j].RuntimeSec = 0
		}
	}
	return d
}

// check verifies every compare result has a full error-free series per
// configuration, and that the first jobs' indicators equal an in-process
// experiment.CompareCtx on the same inputs.
func (p *comparePlan) check() []string {
	var out []string
	sw := cmpSweep.sweep()
	points := len(sw.Values())
	for i, d := range p.done {
		var doc seriesDoc
		if err := json.Unmarshal(d.raw, &doc); err != nil {
			out = append(out, fmt.Sprintf("compare job %d: %v", d.job, err))
			continue
		}
		_, cfgs := cmpJob(d.job)
		if len(doc.Series) != len(cfgs) {
			out = append(out, fmt.Sprintf("compare job %d has %d series, want %d", d.job, len(doc.Series), len(cfgs)))
			continue
		}
		for _, s := range doc.Series {
			if len(s.Points) != points {
				out = append(out, fmt.Sprintf("compare job %d series %s has %d points, want %d", d.job, s.Label, len(s.Points), points))
			}
			for _, pt := range s.Points {
				if pt.Error != "" {
					out = append(out, fmt.Sprintf("compare job %d series %s failed at x=%g: %s", d.job, s.Label, pt.X, pt.Error))
				}
			}
		}
		if i < replayed {
			if msg := p.replay(d.job, &doc); msg != "" {
				out = append(out, fmt.Sprintf("compare job %d: %s", d.job, msg))
			}
		}
	}
	if len(p.done) == 0 {
		out = append(out, "no compare job finished")
	}
	return out
}

func (s sweepReq) sweep() experiment.Sweep {
	return experiment.Sweep{Param: s.Param, Start: s.Start, End: s.End, Step: s.Step}
}

func (p *comparePlan) replay(job int, got *seriesDoc) string {
	dsIdx, cfgs := cmpJob(job)
	ds, err := dataset.ReadJSON(bytes.NewReader(p.bodies[dsIdx]))
	if err != nil {
		return err.Error()
	}
	w, err := parseWorkloadLines(p.workloads[dsIdx])
	if err != nil {
		return err.Error()
	}
	bases := make([]engine.Config, len(cfgs))
	for i, cr := range cfgs {
		cr.Label = cr.Algo // the server labels unlabeled compare configs by algo
		if bases[i], err = engineConfig(ds, cr, w); err != nil {
			return err.Error()
		}
	}
	series, err := experiment.CompareCtx(context.Background(), ds, bases, cmpSweep.sweep(), engine.NewScheduler(2, nil))
	if err != nil {
		return err.Error()
	}
	var buf bytes.Buffer
	if err := export.SeriesJSON(&buf, series); err != nil {
		return err.Error()
	}
	var want seriesDoc // SeriesJSON writes the bare array the server wraps
	if err := json.Unmarshal(buf.Bytes(), &want.Series); err != nil {
		return err.Error()
	}
	if !reflect.DeepEqual(compactIndicators(want.withoutRuntimes()), compactIndicators(got.withoutRuntimes())) {
		return "indicators differ from an in-process experiment.CompareCtx"
	}
	return ""
}

// compactIndicators normalizes the raw indicator objects' whitespace.
func compactIndicators(d *seriesDoc) *seriesDoc {
	for i := range d.Series {
		for j := range d.Series[i].Points {
			var b bytes.Buffer
			if err := json.Compact(&b, d.Series[i].Points[j].Indicators); err == nil {
				d.Series[i].Points[j].Indicators = b.Bytes()
			}
		}
	}
	return d
}
