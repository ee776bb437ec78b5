package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"secreta/internal/faultfs"
	"secreta/internal/store"
)

// Result-store e2e tests: every anonymize result is written once, as a
// content-addressed file that jobs reference; hits write nothing, and
// deleting or evicting a job only drops its reference.

// anonSubmit submits an anonymize job with a cluster config of the given
// k over ref, waits for it to finish done, and returns its ID and
// buffered result document.
func anonSubmit(t *testing.T, base, ref string, k int) (string, map[string]any) {
	t.Helper()
	resp, sub := postJSON(t, base+"/anonymize", map[string]any{
		"dataset_ref": ref,
		"config":      map[string]any{"algo": "cluster", "k": k},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit k=%d: code=%d body=%v", k, resp.StatusCode, sub)
	}
	id := sub["job"].(string)
	if st := pollDone(t, base, id); st != StatusDone {
		t.Fatalf("job %s (k=%d) ended %s", id, k, st)
	}
	code, res := getJSON(t, base+"/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result of %s: code=%d", id, code)
	}
	return id, res
}

// resultFileCreates counts the result files the ledger saw published
// (the rename that makes a results/*.ndr visible).
func resultFileCreates(ffs *faultfs.FaultFS) int {
	n := 0
	for _, op := range ffs.Ledger() {
		if op.Op == faultfs.OpRename && strings.HasSuffix(op.Path, ".ndr") && filepath.Base(filepath.Dir(op.Path)) == "results" {
			n++
		}
	}
	return n
}

// ndrFiles lists the result files in dir's results directory.
func ndrFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "results", "*.ndr"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func cacheCounter(t *testing.T, base, name string) float64 {
	t.Helper()
	_, stats := getJSON(t, base+"/stats")
	return stats["cache"].(map[string]any)[name].(float64)
}

// TestResultWrittenOnceAcrossHitsAndRestart is the write-once contract:
// N anonymize jobs over K distinct (dataset, config) pairs — misses, RAM
// hits, a resubmission after DELETE, disk hits after a crash and reboot
// — leave exactly K result files, no cache directory, and no result-file
// create for any hit.
func TestResultWrittenOnceAcrossHitsAndRestart(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.NewFaultFS(faultfs.OS, 1)
	ts, crash := faultServer(t, dir, ffs, Options{Workers: 2})
	raw, _ := patientsJSON(t)
	code, body := uploadDataset(t, ts.URL, raw)
	if code != http.StatusCreated {
		t.Fatalf("upload: %d %v", code, body)
	}
	ref := body["dataset_ref"].(string)

	// Two misses write the K=2 files.
	for _, k := range []int{2, 3} {
		if _, res := anonSubmit(t, ts.URL, ref, k); res["cache_hit"] != false {
			t.Fatalf("first k=%d run reported cache_hit=%v", k, res["cache_hit"])
		}
	}
	if got := resultFileCreates(ffs); got != 2 {
		t.Fatalf("misses created %d result files, want 2", got)
	}
	// RAM hits, and a resubmission after DELETE, write nothing.
	id, res := anonSubmit(t, ts.URL, ref, 2)
	if res["cache_hit"] != true {
		t.Fatalf("repeat k=2 not a cache hit: %v", res["cache_hit"])
	}
	if code, _ := httpDelete(t, ts.URL+"/jobs/"+id); code != http.StatusOK {
		t.Fatalf("delete %s: %d", id, code)
	}
	if _, res := anonSubmit(t, ts.URL, ref, 2); res["cache_hit"] != true {
		t.Fatalf("resubmission after DELETE not a cache hit: %v", res["cache_hit"])
	}
	anonSubmit(t, ts.URL, ref, 3)
	if got := resultFileCreates(ffs); got != 2 {
		t.Fatalf("RAM hits created result files: %d creates, want still 2", got)
	}

	// Crash and reboot: the first submission of each pair is a disk hit,
	// the second a RAM hit; none writes.
	crash()
	ts2, _ := faultServer(t, dir, ffs, Options{Workers: 2})
	for _, k := range []int{2, 3, 2, 3} {
		if _, res := anonSubmit(t, ts2.URL, ref, k); res["cache_hit"] != true {
			t.Fatalf("k=%d after reboot not a cache hit: %v", k, res["cache_hit"])
		}
	}
	if got := cacheCounter(t, ts2.URL, "disk_hits"); got != 2 {
		t.Fatalf("disk_hits after reboot = %v, want 2 (one per pair, then RAM)", got)
	}
	if got := resultFileCreates(ffs); got != 2 {
		t.Fatalf("disk hits created result files: %d creates, want still 2", got)
	}
	if files := ndrFiles(t, dir); len(files) != 2 {
		t.Fatalf("result files on disk: %v, want exactly 2", files)
	}
	if _, err := os.Stat(filepath.Join(dir, "cache")); !os.IsNotExist(err) {
		t.Fatalf("cache directory exists (err=%v)", err)
	}
}

// TestDeleteThenResubmitIsDiskHit: DELETE drops the job's reference but
// keeps its file, so the same submission afterwards is answered from
// disk — byte-identical to the original apart from cache_hit — even with
// the RAM cache unable to hold anything.
func TestDeleteThenResubmitIsDiskHit(t *testing.T) {
	dir := t.TempDir()
	ts, _ := durableServer(t, dir, Options{Workers: 2, CacheMaxBytes: 1})
	raw, _ := patientsJSON(t)
	_, body := uploadDataset(t, ts.URL, raw)
	ref := body["dataset_ref"].(string)

	id, first := anonSubmit(t, ts.URL, ref, 4)
	_, firstRaw := getRaw(t, ts.URL+"/jobs/"+id+"/result")
	if code, _ := httpDelete(t, ts.URL+"/jobs/"+id); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if files := ndrFiles(t, dir); len(files) != 1 {
		t.Fatalf("result files after DELETE: %v, want the one file kept", files)
	}
	id2, again := anonSubmit(t, ts.URL, ref, 4)
	if first["cache_hit"] != false || again["cache_hit"] != true {
		t.Fatalf("cache_hit first=%v again=%v, want false then true", first["cache_hit"], again["cache_hit"])
	}
	if got := cacheCounter(t, ts.URL, "disk_hits"); got != 1 {
		t.Fatalf("disk_hits = %v, want 1", got)
	}
	_, againRaw := getRaw(t, ts.URL+"/jobs/"+id2+"/result")
	want := bytes.Replace(firstRaw, []byte(`"cache_hit": false`), []byte(`"cache_hit": true`), 1)
	if !bytes.Equal(againRaw, want) {
		t.Fatalf("disk hit body differs from the miss beyond cache_hit:\n%s", firstDiff(againRaw, want))
	}
}

// TestDiskHitReadFailureRecomputes: an EIO on opening a stored result
// degrades to a recompute — the job ends done with a readable result, and
// disk_errors counts the failure.
func TestDiskHitReadFailureRecomputes(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.NewFaultFS(faultfs.OS, 1)
	ts, crash := faultServer(t, dir, ffs, Options{Workers: 2})
	raw, _ := patientsJSON(t)
	_, body := uploadDataset(t, ts.URL, raw)
	ref := body["dataset_ref"].(string)
	anonSubmit(t, ts.URL, ref, 3)
	crash()

	ts2, _ := faultServer(t, dir, ffs, Options{Workers: 2})
	ffs.Arm(faultfs.Rule{Op: faultfs.OpOpen, Path: "results/*.ndr", Err: syscall.EIO})
	id, res := anonSubmit(t, ts2.URL, ref, 3)
	if res["cache_hit"] != false {
		t.Fatalf("recomputed job reported cache_hit=%v", res["cache_hit"])
	}
	if got := cacheCounter(t, ts2.URL, "disk_errors"); got != 1 {
		t.Fatalf("disk_errors = %v, want 1", got)
	}
	if got := cacheCounter(t, ts2.URL, "disk_hits"); got != 0 {
		t.Fatalf("disk_hits = %v, want 0", got)
	}
	if code, _ := getRaw(t, ts2.URL+"/jobs/"+id+"/result/stream"); code != http.StatusOK {
		t.Fatalf("recomputed job's stream: %d", code)
	}
}

// TestRebootRebuildsRefsAndSweepKeepsReferenced: after a crash, the
// journal's done records are the references; the next capped sweep
// reclaims only the file whose job was deleted, and the retained job's
// result still serves.
func TestRebootRebuildsRefsAndSweepKeepsReferenced(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.NewFaultFS(faultfs.OS, 1)
	ts, crash := faultServer(t, dir, ffs, Options{Workers: 2})
	raw, _ := patientsJSON(t)
	_, body := uploadDataset(t, ts.URL, raw)
	ref := body["dataset_ref"].(string)
	dropped, _ := anonSubmit(t, ts.URL, ref, 2)
	kept, _ := anonSubmit(t, ts.URL, ref, 3)
	_, keptRaw := getRaw(t, ts.URL+"/jobs/"+kept+"/result")
	if code, _ := httpDelete(t, ts.URL+"/jobs/"+dropped); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	crash()

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Cap the data dir one byte under its footprint: lever 1 alone must
	// get it back under, taking the unreferenced file only.
	capBytes := st.DiskUsage() - 1
	ctx, cancel := context.WithCancel(context.Background())
	srv := mustNew(t, ctx, Options{Workers: 1, Store: st, DataMaxBytes: capBytes, GCInterval: time.Hour})
	ts2 := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts2.Close()
		cancel()
		st.Close()
	})
	waitReady(t, ts2.URL)
	if usage := srv.sweepOnce(); usage > capBytes {
		t.Fatalf("sweep left usage %d over cap %d", usage, capBytes)
	}
	if got := srv.gc.cacheTrimmed.Load(); got != 1 {
		t.Fatalf("cache_trimmed = %d, want 1", got)
	}
	if got := srv.gc.evictedJobs.Load(); got != 0 {
		t.Fatalf("evicted_jobs = %d, want 0", got)
	}
	if files := ndrFiles(t, dir); len(files) != 1 {
		t.Fatalf("result files after sweep: %v, want the referenced one", files)
	}
	if code, got := getRaw(t, ts2.URL+"/jobs/"+kept+"/result"); code != http.StatusOK || !bytes.Equal(got, keptRaw) {
		t.Fatalf("retained job after sweep: code=%d, identical=%v", code, bytes.Equal(got, keptRaw))
	}
}

// TestTrimRacingDiskHitsNeverTakesHeldFile runs unreferenced-file trims
// in a loop while concurrent resubmissions are answered from disk (the
// RAM cache holds nothing): every job ends done and serves its records,
// and once the jobs are deleted no reference is left behind.
func TestTrimRacingDiskHitsNeverTakesHeldFile(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := mustNew(t, ctx, Options{Workers: 2, MaxConcurrentJobs: 4, CacheMaxBytes: 1, Store: st})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		st.Close()
	})
	waitReady(t, ts.URL)
	raw, _ := patientsJSON(t)
	_, body := uploadDataset(t, ts.URL, raw)
	ref := body["dataset_ref"].(string)
	seed, _ := anonSubmit(t, ts.URL, ref, 4)
	_, wantRecords := getRaw(t, ts.URL+"/jobs/"+seed+"/result/stream")
	wantRecords = wantRecords[bytes.IndexByte(wantRecords, '\n')+1:]
	httpDelete(t, ts.URL+"/jobs/"+seed)

	stop := make(chan struct{})
	trimmed := make(chan struct{})
	go func() {
		defer close(trimmed)
		for {
			select {
			case <-stop:
				return
			default:
				st.ResultFiles.Trim(0, 0)
			}
		}
	}()
	var wg sync.WaitGroup
	ids := make([]string, 12)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, sub := postJSON(t, ts.URL+"/anonymize", map[string]any{
				"dataset_ref": ref,
				"config":      map[string]any{"algo": "cluster", "k": 4},
			})
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %d: %d", i, resp.StatusCode)
				return
			}
			ids[i] = sub["job"].(string)
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if id == "" {
			continue
		}
		if st := pollDone(t, ts.URL, id); st != StatusDone {
			t.Fatalf("job %s ended %s", id, st)
		}
		_, got := getRaw(t, ts.URL+"/jobs/"+id+"/result/stream")
		if got = got[bytes.IndexByte(got, '\n')+1:]; !bytes.Equal(got, wantRecords) {
			t.Fatalf("job %s records differ from the original run", id)
		}
	}
	close(stop)
	<-trimmed
	for _, id := range ids {
		if id != "" {
			httpDelete(t, ts.URL+"/jobs/"+id)
		}
	}
	for _, f := range ndrFiles(t, dir) {
		addr := strings.TrimSuffix(filepath.Base(f), ".ndr")
		if n := st.ResultFiles.Refs(addr); n != 0 {
			t.Fatalf("%d references left on %s after every job was deleted", n, addr[:8])
		}
	}
}

// TestResubmissionsUnderRAMChurnAreHits: with a one-entry RAM cache and
// two clients resubmitting known pairs at once, RAM evictions race every
// lookup; each resubmission must still be a hit (RAM or disk) whose body
// equals the original apart from cache_hit.
func TestResubmissionsUnderRAMChurnAreHits(t *testing.T) {
	ts, _ := durableServer(t, t.TempDir(), Options{Workers: 2, MaxConcurrentJobs: 4, CacheMaxEntries: 1})
	raw, _ := patientsJSON(t)
	_, body := uploadDataset(t, ts.URL, raw)
	ref := body["dataset_ref"].(string)
	ks := []int{2, 3, 4, 5}
	want := map[int][]byte{}
	for _, k := range ks {
		id, _ := anonSubmit(t, ts.URL, ref, k)
		_, doc := getRaw(t, ts.URL+"/jobs/"+id+"/result")
		want[k] = bytes.Replace(doc, []byte(`"cache_hit": false`), []byte(`"cache_hit": true`), 1)
	}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := ks[(i+c)%len(ks)]
				resp, sub := postJSON(t, ts.URL+"/anonymize", map[string]any{
					"dataset_ref": ref, "config": map[string]any{"algo": "cluster", "k": k},
				})
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("submit k=%d: %d", k, resp.StatusCode)
					return
				}
				id := sub["job"].(string)
				if st := pollDone(t, ts.URL, id); st != StatusDone {
					t.Errorf("job %s ended %s", id, st)
					return
				}
				if _, got := getRaw(t, ts.URL+"/jobs/"+id+"/result"); !bytes.Equal(got, want[k]) {
					t.Errorf("resubmission of k=%d (%s) is not a hit identical to the original", k, id)
				}
			}
		}(c)
	}
	wg.Wait()
}
