package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"secreta/internal/faultfs"
	"secreta/internal/store"
)

// TestDegradedModeProbeRearms is the degraded-mode round trip on one
// process, no restart: a permanent journal fault latches read-only mode
// (writes 503, reads and health alive, secreta_degraded=1), and once the
// disk recovers the background probe re-arms writes on its own.
func TestDegradedModeProbeRearms(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.NewFaultFS(faultfs.OS, 1)
	ts, _ := faultServer(t, dir, ffs, Options{Workers: 2, DegradedProbeInterval: 2 * time.Millisecond})

	raw, _ := patientsJSON(t)
	code, body := uploadDataset(t, ts.URL, raw)
	if code != http.StatusCreated {
		t.Fatalf("upload: %d %v", code, body)
	}
	ref := body["dataset_ref"].(string)

	// The disk breaks: every WAL append and every recovery probe fails.
	ffs.Arm(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal.log", Err: syscall.EIO, Count: -1})
	ffs.Arm(faultfs.Rule{Op: faultfs.OpRename, Path: ".probe", Err: syscall.EIO, Count: -1})

	// This submission's journal append fails and latches degraded mode.
	resp, _ := postJSON(t, ts.URL+"/anonymize", map[string]any{
		"dataset_ref": ref,
		"config":      map[string]any{"algo": "cluster", "k": 4},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitDegraded(t, ts.URL, true)

	// Writes are rejected; reads and observability keep answering.
	resp, errBody := postJSON(t, ts.URL+"/anonymize", map[string]any{"dataset_ref": ref})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded POST: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 without Retry-After")
	}
	if errBody["degraded"] != true {
		t.Fatalf("degraded 503 body: %v", errBody)
	}
	if code, _ := getJSON(t, ts.URL+"/jobs"); code != http.StatusOK {
		t.Fatalf("degraded GET /jobs: %d, want 200", code)
	}
	code, stats := getJSON(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("degraded GET /stats: %d", code)
	}
	if active, _ := dig(stats, "degraded", "active").(bool); !active {
		t.Fatalf("stats degraded block: %v", stats["degraded"])
	}
	if !scrapeContains(t, ts.URL, "secreta_degraded 1") {
		t.Fatal("metrics missing secreta_degraded 1 while degraded")
	}

	// The disk recovers; the probe loop must notice and re-arm writes
	// without a restart.
	ffs.Clear()
	waitDegraded(t, ts.URL, false)
	if !scrapeContains(t, ts.URL, "secreta_degraded 0") {
		t.Fatal("metrics still report secreta_degraded 1 after recovery")
	}

	// Full write path is live again: a fresh job runs to done.
	resp, sub := postJSON(t, ts.URL+"/anonymize", map[string]any{
		"dataset_ref": ref,
		"config":      map[string]any{"algo": "cluster", "k": 3},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after recovery: %d", resp.StatusCode)
	}
	if st := pollDone(t, ts.URL, sub["job"].(string)); st != StatusDone {
		t.Fatalf("job after recovery ended %s", st)
	}
}

// waitDegraded polls /healthz until the degraded flag matches want.
func waitDegraded(t *testing.T, base string, want bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, health := getJSON(t, base+"/healthz")
		if code != http.StatusOK {
			t.Fatalf("healthz: %d", code)
		}
		if (health["status"] == "degraded") == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("server never reached degraded=%v", want)
}

// scrapeContains greps one sample line out of /metrics.
func scrapeContains(t *testing.T, base, line string) bool {
	t.Helper()
	code, raw := getRaw(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if l == line {
			return true
		}
	}
	return false
}

// TestPersistAfterCloseStaysHealthy closes the store under a live server,
// as the end of an ordinary shutdown does while a job may still finish.
// The job's journal records and result file are then refused with
// store.ErrClosed, and those refusals must not latch degraded mode.
func TestPersistAfterCloseStaysHealthy(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := mustNew(t, ctx, Options{Store: st, Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	waitReady(t, ts.URL)

	raw, _ := patientsJSON(t)
	code, body := uploadDataset(t, ts.URL, raw)
	if code != http.StatusCreated {
		t.Fatalf("upload: %d %v", code, body)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	resp, sub := postJSON(t, ts.URL+"/anonymize", map[string]any{
		"dataset_ref": body["dataset_ref"],
		"config":      map[string]any{"algo": "cluster", "k": 4},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after close: %d %v", resp.StatusCode, sub)
	}
	if st := pollDone(t, ts.URL, sub["job"].(string)); st != StatusDone {
		t.Fatalf("job after close: %s", st)
	}
	_, stats := getJSON(t, ts.URL+"/stats")
	if n, _ := dig(stats, "degraded", "entered_total").(float64); n != 0 {
		t.Fatalf("degraded.entered_total = %v after writes refused by a closed store, want 0", n)
	}
	if srv.degraded.isActive() {
		t.Fatal("a closed store latched degraded mode")
	}
}
