package store

import (
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"secreta/internal/faultfs"
)

// TestWALAppendENOSPCRollsBack drives the one append path that guards
// the whole journal: a failed WAL append must roll the file back to the
// last durable frame, the journal must keep accepting appends once the
// disk recovers, and a reopen must replay exactly the successful records
// with a clean (not torn) tail. Three failure points: the frame header
// lands partially, the frame body lands partially, and the write lands
// fully but fsync fails.
func TestWALAppendENOSPCRollsBack(t *testing.T) {
	cases := []struct {
		name string
		rule faultfs.Rule
	}{
		// walHeaderSize is 8: Short < 8 tears mid-header.
		{"frame_header", faultfs.Rule{Op: faultfs.OpWrite, Path: walFileName, Err: syscall.ENOSPC, Short: 4}},
		// Short >= 8 leaves a full header and a torn payload.
		{"frame_body", faultfs.Rule{Op: faultfs.OpWrite, Path: walFileName, Err: syscall.ENOSPC, Short: 12}},
		// The write succeeds; durability fails.
		{"fsync", faultfs.Rule{Op: faultfs.OpSync, Path: walFileName, Err: syscall.ENOSPC}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.NewFaultFS(faultfs.OS, 1)
			j, err := openJournal(ffs, dir, 1000)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Submit(submitRec("job-1", 1)); err != nil {
				t.Fatal(err)
			}
			durable := j.Stats().WALBytes

			ffs.Arm(tc.rule)
			err = j.Submit(submitRec("job-2", 2))
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("append under %s fault: err=%v, want ENOSPC", tc.name, err)
			}
			if got := j.Stats().WALBytes; got != durable {
				t.Fatalf("walBytes=%d after failed append, want rollback to %d", got, durable)
			}

			// Disk recovers: the journal must append again without reopening.
			ffs.Clear()
			if err := j.Submit(submitRec("job-3", 3)); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}

			// Crash (no Close, no snapshot): replay must see exactly the
			// two durable submits and a clean tail — the rollback already
			// removed the torn frame.
			j2, err := OpenJournal(dir, 1000)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			if rp := j2.Stats().Replay; rp.TornTail {
				t.Fatalf("reopen found a torn tail; rollback left debris: %+v", rp)
			}
			jobs := j2.Jobs()
			ids := make([]string, len(jobs))
			for i, rec := range jobs {
				ids[i] = rec.ID
			}
			if len(jobs) != 2 || jobs[0].ID != "job-1" || jobs[1].ID != "job-3" {
				t.Fatalf("replayed jobs %v, want [job-1 job-3]", ids)
			}
		})
	}
}

// TestTrimCountsRemoveErrorsAndContinues pins the trim contract: a file
// that cannot be removed is counted (trim_errors) and skipped, and the
// younger files past it are still trimmed so one undeletable file does
// not wedge the cap.
func TestTrimCountsRemoveErrorsAndContinues(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.NewFaultFS(faultfs.OS, 1)
	d := newDiag(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	r := newResultStore(ffs, d, dir, 0, 0, nil)
	base := time.Now().Add(-time.Hour)
	for i, key := range []string{"aa", "bb", "cc"} {
		putFrames(t, r, key, false)
		r.Release(key)
		// Stamp ascending mtimes so trim order is deterministic: aa oldest.
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, key+".ndr"), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	ffs.Arm(faultfs.Rule{Op: faultfs.OpRemove, Path: "aa.ndr", Err: syscall.EIO, Count: -1})

	if removed := r.Trim(1, 1<<30); removed != 2 {
		t.Fatalf("removed=%d, want 2 (bb and cc past the stuck aa)", removed)
	}
	if got := d.trimErrors.Load(); got != 1 {
		t.Fatalf("trim_errors=%d, want 1", got)
	}
	if !r.Has("aa") {
		t.Fatal("undeletable aa should survive")
	}
	if r.Has("bb") || r.Has("cc") {
		t.Fatal("younger entries should have been trimmed past the stuck one")
	}
}

// TestOpenSweepsOrphanedTempFiles: debris of atomic writes interrupted by
// a crash (".tmp-*") is removed at Open and counted for /stats.
func TestOpenSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	orphans := []string{
		filepath.Join(dir, "results", ".tmp-123"),
		filepath.Join(dir, "traces", ".tmp-999"),
		filepath.Join(dir, "journal", ".tmp-1"),
	}
	for _, p := range orphans {
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A real blob must survive the sweep.
	keep := filepath.Join(dir, "results", "job.json")
	if err := os.WriteFile(keep, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.OrphansSwept(); got != len(orphans) {
		t.Fatalf("OrphansSwept=%d, want %d", got, len(orphans))
	}
	for _, p := range orphans {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("orphan %s survived the sweep (err=%v)", p, err)
		}
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("sweep removed a real blob: %v", err)
	}
}

// TestStoreRetriesTransientAndCountsThem wires the production FS stack
// (RetryFS over a fault injector) through Open and proves a transient
// EINTR is absorbed invisibly — the operation succeeds and the retry is
// visible on Stats().IORetries.
func TestStoreRetriesTransientAndCountsThem(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.NewFaultFS(faultfs.OS, 1)
	var slept int
	retry := faultfs.WithRetry(ffs, faultfs.RetryPolicy{
		Attempts: 3,
		Sleep:    func(time.Duration) { slept++ }, // injected: tests never sleep real time
	})
	st, err := Open(dir, Options{FS: retry})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ffs.Arm(faultfs.Rule{Op: faultfs.OpSync, Path: walFileName, Err: syscall.EINTR})
	if err := st.Journal.Submit(submitRec("job-1", 1)); err != nil {
		t.Fatalf("transient fault leaked through the retry layer: %v", err)
	}
	if got := st.Stats().IORetries; got != 1 {
		t.Fatalf("io_retries=%d, want 1", got)
	}
	if slept != 1 {
		t.Fatalf("backoff slept %d times, want 1", slept)
	}
}

// TestStorePermanentFaultFailsFast: the retry layer must not mask a
// permanent error — EIO surfaces on the first attempt with no retries.
func TestStorePermanentFaultFailsFast(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.NewFaultFS(faultfs.OS, 1)
	retry := faultfs.WithRetry(ffs, faultfs.RetryPolicy{
		Attempts: 3,
		Sleep:    func(time.Duration) { t.Fatal("permanent errors must not back off") },
	})
	st, err := Open(dir, Options{FS: retry})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ffs.Arm(faultfs.Rule{Op: faultfs.OpSync, Path: walFileName, Err: syscall.EIO})
	if err := st.Journal.Submit(submitRec("job-1", 1)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("err=%v, want EIO surfaced immediately", err)
	}
	if got := st.Stats().IORetries; got != 0 {
		t.Fatalf("io_retries=%d, want 0 for a permanent fault", got)
	}
}

// TestProbeWriteDetectsAndClearsFault: ProbeWrite is the degraded-mode
// re-arm check; it must fail while the data dir cannot take durable
// writes and succeed (cleaning up its sentinel) once it can.
func TestProbeWriteDetectsAndClearsFault(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.NewFaultFS(faultfs.OS, 1)
	st, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ffs.Arm(faultfs.Rule{Op: faultfs.OpRename, Path: ".probe", Err: syscall.EIO, Count: -1})
	if err := st.ProbeWrite(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("probe with broken rename: err=%v, want EIO", err)
	}
	ffs.Clear()
	if err := st.ProbeWrite(); err != nil {
		t.Fatalf("probe after recovery: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ".probe")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("probe sentinel left behind (err=%v)", err)
	}
}

// TestNoBareTimeSleepInStore is the flaky-guard lint: every wait in the
// store's fault/retry machinery must go through an injectable clock, so
// fault tests run at full speed. A bare time.Sleep in this package is a
// regression.
func TestNoBareTimeSleepInStore(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), "time.Sleep") {
			t.Errorf("%s calls time.Sleep directly; route waits through an injectable Sleep (see faultfs.RetryPolicy)", name)
		}
	}
}
