package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"secreta/internal/dataset"
	"secreta/internal/export"
)

// runJSON is one entry of a result's "results" array.
type runJSON struct {
	Label      string          `json:"label"`
	Mode       string          `json:"mode"`
	RuntimeSec float64         `json:"runtime_s"`
	Phases     []phaseJSON     `json:"phases"`
	Indicators json.RawMessage `json:"indicators"`
	Error      string          `json:"error"`
}

type phaseJSON struct {
	Name       string  `json:"name"`
	DurationMS float64 `json:"duration_ms"`
}

// anonResult is an anonymize result in either representation, reduced to
// what the checks compare: the compact record lines and the run summary.
type anonResult struct {
	attrs    []export.StreamAttr
	trans    string
	cacheHit bool
	results  []byte // compact "results" array
	runs     []runJSON
	records  [][]byte // compact record objects, in order
}

// streamHeader is the first line of the NDJSON representation.
type streamHeader struct {
	Attributes  []export.StreamAttr `json:"attributes"`
	Transaction string              `json:"transaction"`
	Records     int                 `json:"records"`
	CacheHit    bool                `json:"cache_hit"`
	Results     json.RawMessage     `json:"results"`
	runs        []runJSON
}

// parseStreamHeader decodes only the header line of an NDJSON result.
func parseStreamHeader(raw []byte) (*streamHeader, error) {
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	var hdr streamHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, fmt.Errorf("stream header: %w", err)
	}
	if err := json.Unmarshal(hdr.Results, &hdr.runs); err != nil {
		return nil, fmt.Errorf("stream header results: %w", err)
	}
	return &hdr, nil
}

// parseStream reads the NDJSON representation: a header line, then one
// compact record per line.
func parseStream(raw []byte) (*anonResult, error) {
	hdr, err := parseStreamHeader(raw)
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n"))
	if len(lines)-1 != hdr.Records {
		return nil, fmt.Errorf("stream carries %d record lines, header says %d", len(lines)-1, hdr.Records)
	}
	return newAnonResult(hdr.Attributes, hdr.Transaction, hdr.CacheHit, hdr.Results, lines[1:])
}

// parseBuffered reads the buffered JSON document of an anonymize job.
func parseBuffered(raw []byte) (*anonResult, error) {
	var doc struct {
		Anonymized struct {
			Attributes  []export.StreamAttr `json:"attributes"`
			Transaction string              `json:"transaction"`
			Records     []json.RawMessage   `json:"records"`
		} `json:"anonymized"`
		CacheHit bool            `json:"cache_hit"`
		Results  json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("buffered result: %w", err)
	}
	recs := make([][]byte, len(doc.Anonymized.Records))
	for i, r := range doc.Anonymized.Records {
		var b bytes.Buffer
		if err := json.Compact(&b, r); err != nil {
			return nil, err
		}
		recs[i] = b.Bytes()
	}
	return newAnonResult(doc.Anonymized.Attributes, doc.Anonymized.Transaction, doc.CacheHit, doc.Results, recs)
}

func newAnonResult(attrs []export.StreamAttr, trans string, hit bool, results json.RawMessage, recs [][]byte) (*anonResult, error) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, results); err != nil {
		return nil, fmt.Errorf("results array: %w", err)
	}
	r := &anonResult{attrs: attrs, trans: trans, cacheHit: hit, results: compact.Bytes(), records: recs}
	if err := json.Unmarshal(r.results, &r.runs); err != nil {
		return nil, fmt.Errorf("results array: %w", err)
	}
	if len(r.runs) != 1 {
		return nil, fmt.Errorf("anonymize result has %d runs, want 1", len(r.runs))
	}
	if r.runs[0].Error != "" {
		return nil, fmt.Errorf("anonymize run failed: %s", r.runs[0].Error)
	}
	return r, nil
}

// digest fingerprints everything but the cache_hit flag: a cache hit must
// reproduce its original miss byte for byte, in either representation.
func (r *anonResult) digest() [32]byte {
	h := sha256.New()
	h.Write(r.results)
	for _, rec := range r.records {
		h.Write([]byte{'\n'})
		h.Write(rec)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// dataset rebuilds the anonymized records as a dataset for the privacy
// checks.
func (r *anonResult) dataset() (*dataset.Dataset, error) {
	attrs := make([]dataset.Attribute, len(r.attrs))
	for i, a := range r.attrs {
		kind, err := dataset.ParseKind(a.Kind)
		if err != nil {
			return nil, err
		}
		attrs[i] = dataset.Attribute{Name: a.Name, Kind: kind}
	}
	ds := dataset.New(attrs, r.trans)
	for i, line := range r.records {
		var rec struct {
			Values []string `json:"values"`
			Items  []string `json:"items"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		if err := ds.AddRecord(dataset.Record{Values: rec.Values, Items: rec.Items}); err != nil {
			return nil, err
		}
	}
	return ds, nil
}
