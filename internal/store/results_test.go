package store

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestResultStore(t *testing.T, maxEntries int, maxBytes int64) *ResultStore {
	t.Helper()
	st, err := Open(t.TempDir(), Options{CacheMaxEntries: maxEntries, CacheMaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st.ResultFiles
}

// putFrames writes a two-frame result under addr and reports whether
// this Put created the file. Failures are reported with t.Errorf, so
// it is safe on any goroutine.
func putFrames(t *testing.T, r *ResultStore, addr string, replace bool) bool {
	t.Helper()
	created, err := r.Put(addr, replace, func(w *ChunkWriter) error {
		if err := w.WriteFrame([]byte(`{"meta":1}`)); err != nil {
			return err
		}
		return w.WriteFrame([]byte("record\n"))
	})
	if err != nil {
		t.Errorf("put %s: %v", addr, err)
	}
	return created
}

// TestResultStoreRoundTrip pins the reference lifecycle: Put writes a
// file once and references it, a second Put only references it, a
// released file stays on disk as a cache entry that Acquire can take
// back, and only unreferenced files are trimmed.
func TestResultStoreRoundTrip(t *testing.T) {
	r := newTestResultStore(t, 0, 0)
	addr := ResultAddr("abc123/def456") // engine keys contain '/'
	if len(addr) != 64 {
		t.Fatalf("address %q is not a SHA-256 hex digest", addr)
	}
	if r.Acquire(addr) {
		t.Fatal("Acquire of a missing file succeeded")
	}
	if !putFrames(t, r, addr, false) {
		t.Fatal("first Put did not create the file")
	}
	if putFrames(t, r, addr, false) {
		t.Fatal("second Put rewrote an existing file")
	}
	if got := r.Refs(addr); got != 2 {
		t.Fatalf("refs = %d, want 2", got)
	}
	frames, err := readChunks(r, addr)
	if err != nil || len(frames) != 2 || string(frames[0]) != `{"meta":1}` {
		t.Fatalf("read back: %q, %v", frames, err)
	}
	if removed := r.Trim(0, 0); removed != 0 {
		t.Fatalf("trim removed %d referenced files", removed)
	}
	r.Release(addr)
	r.Release(addr)
	if !r.Has(addr) {
		t.Fatal("releasing the last reference removed the file")
	}
	if !r.Acquire(addr) {
		t.Fatal("an unreferenced file is a cache entry Acquire must take")
	}
	r.Release(addr)
	if removed := r.Trim(0, 0); removed != 1 || r.Has(addr) {
		t.Fatalf("trim of the unreferenced file removed %d, still there: %v", removed, r.Has(addr))
	}
	if got := r.Refs(addr); got != 0 {
		t.Fatalf("refs after trim = %d", got)
	}
}

// TestResultStoreCapsBoundUnreferencedOnly: the disk-cache caps, by
// entries and by bytes, count the unreferenced files alone and trim them
// oldest first; a referenced file is never trimmed, however old.
func TestResultStoreCapsBoundUnreferencedOnly(t *testing.T) {
	r := newTestResultStore(t, 0, 0)
	var addrs []string
	base := time.Now().Add(-time.Hour)
	for i, key := range []string{"a", "b", "c", "d", "e"} {
		a := ResultAddr(key)
		addrs = append(addrs, a)
		putFrames(t, r, a, false)
		// Stamp ascending mtimes so trim order is deterministic.
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(r.dir, a+".ndr"), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// a (oldest) stays referenced; b..e become cache entries.
	for _, a := range addrs[1:] {
		r.Release(a)
	}
	if removed := r.Trim(3, 1<<30); removed != 1 || r.Has(addrs[1]) {
		t.Fatalf("entry-cap trim removed %d, want the oldest cache entry", removed)
	}
	all, _ := r.stats()
	size := all.Bytes / int64(all.Count) // every file holds the same frames
	if removed := r.Trim(10, 2*size); removed != 1 || r.Has(addrs[2]) {
		t.Fatalf("byte-cap trim removed %d, want the oldest cache entry", removed)
	}
	if !r.Has(addrs[0]) || !r.Has(addrs[3]) || !r.Has(addrs[4]) {
		t.Fatal("trims must keep the referenced file and the youngest cache entries")
	}
	all, unreferenced := r.stats()
	if all.Count != 3 || unreferenced.Count != 2 {
		t.Fatalf("stats all=%+v unreferenced=%+v, want 3 and 2", all, unreferenced)
	}
}

// TestResultStoreTrimSparesFileReferencedAfterWalk pins the race a trim
// and a disk hit can run: the hit acquires a file the trim's directory
// walk saw unreferenced; the removal must re-check and spare it.
func TestResultStoreTrimSparesFileReferencedAfterWalk(t *testing.T) {
	r := newTestResultStore(t, 0, 0)
	held, free := ResultAddr("held"), ResultAddr("free")
	for _, a := range []string{held, free} {
		putFrames(t, r, a, false)
		r.Release(a)
	}
	files, err := listDir(r.fsys, r.dir, resultExt)
	cached := r.unreferenced(files)
	if err != nil || len(cached) != 2 {
		t.Fatalf("walk: %d cache entries, %v; want 2", len(cached), err)
	}
	if !r.Acquire(held) {
		t.Fatal("Acquire of a cache entry failed")
	}
	if removed := r.trim(cached, 0, 0); removed != 1 {
		t.Fatalf("trim removed %d, want 1", removed)
	}
	if !r.Has(held) || r.Has(free) {
		t.Fatal("trim must spare the file acquired after its walk and take the other")
	}
}

// TestResultStoreConcurrentPutWritesOnce: identical results landing at
// once are written by one Put; the others wait and share the file.
func TestResultStoreConcurrentPutWritesOnce(t *testing.T) {
	r := newTestResultStore(t, 0, 0)
	addr := ResultAddr("same")
	var created atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if putFrames(t, r, addr, false) {
				created.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := created.Load(); got != 1 {
		t.Fatalf("%d Puts wrote the file, want 1", got)
	}
	if got := r.Refs(addr); got != 8 {
		t.Fatalf("refs = %d, want 8", got)
	}
}

// TestResultStoreTrimRacesAcquire runs trims of every unreferenced file
// against hits that acquire, read and release: a hit that acquired must
// always find its file whole, and no referenced file is ever removed.
func TestResultStoreTrimRacesAcquire(t *testing.T) {
	r := newTestResultStore(t, 0, 0)
	addrs := make([]string, 8)
	for i := range addrs {
		addrs[i] = ResultAddr(string(rune('a' + i)))
		putFrames(t, r, addrs[i], false)
		r.Release(addrs[i])
	}
	stop := make(chan struct{})
	var trimmer, hitters sync.WaitGroup
	trimmer.Add(1)
	go func() {
		defer trimmer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.Trim(0, 0)
		}
	}()
	for w := 0; w < 4; w++ {
		hitters.Add(1)
		go func(w int) {
			defer hitters.Done()
			for i := 0; i < 200; i++ {
				a := addrs[(i+w)%len(addrs)]
				if !r.Acquire(a) {
					// Trimmed: a miss recomputes and writes it again.
					putFrames(t, r, a, false)
				}
				frames, err := readChunks(r, a)
				if err != nil || len(frames) != 2 {
					t.Errorf("held file %s unreadable: %d frames, %v", a[:8], len(frames), err)
				}
				r.Release(a)
			}
		}(w)
	}
	hitters.Wait()
	close(stop)
	trimmer.Wait()
	for _, a := range addrs {
		if got := r.Refs(a); got != 0 {
			t.Fatalf("refs on %s = %d after every hit released", a[:8], got)
		}
	}
}

// TestResultStoreRefsRebuiltFromJournal: a reopened store counts one
// reference per journaled done record, so a trim right after boot keeps
// every file a retained job points at and reclaims the rest.
func TestResultStoreRefsRebuiltFromJournal(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	kept, dropped := ResultAddr("kept"), ResultAddr("dropped")
	for i, addr := range []string{kept, dropped} {
		id := []string{"j-000001", "j-000002"}[i]
		putFrames(t, st.ResultFiles, addr, false)
		if err := st.Journal.Submit(submitRec(id, i+1)); err != nil {
			t.Fatal(err)
		}
		if err := st.Journal.Finish(id, "done", "", true, &ResultRef{Addr: addr, Results: []byte(`[]`)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Journal.Delete("j-000002"); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, no final snapshot — the WAL alone carries it.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.ResultFiles.Refs(kept); got != 1 {
		t.Fatalf("refs(kept) = %d after reboot, want 1", got)
	}
	if got := st2.ResultFiles.Refs(dropped); got != 0 {
		t.Fatalf("refs(dropped) = %d after reboot, want 0", got)
	}
	if removed := st2.ResultFiles.Trim(0, 0); removed != 1 {
		t.Fatalf("trim after reboot removed %d, want 1", removed)
	}
	if !st2.ResultFiles.Has(kept) || st2.ResultFiles.Has(dropped) {
		t.Fatal("trim after reboot must keep the referenced file and reclaim the other")
	}
	s := st2.Stats()
	if s.ResultStreams.Count != 1 || s.ResultCache.Count != 0 {
		t.Fatalf("stats result_streams=%+v result_cache=%+v", s.ResultStreams, s.ResultCache)
	}
}

// TestCloseRefusesLaterWrites: once Close returns no file lands in the
// data directory — a job finishing during shutdown gets an error, not a
// file behind the closed store's back.
func TestCloseRefusesLaterWrites(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Traces.Put("j-000001", []byte(`{}`)); !errors.Is(err, ErrClosed) {
		t.Fatalf("trace put after Close: %v, want ErrClosed", err)
	}
	if _, err := st.ResultFiles.Put(ResultAddr("k"), false, func(*ChunkWriter) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("result put after Close: %v, want ErrClosed", err)
	}
	if st.Traces.Has("j-000001") || st.ResultFiles.Has(ResultAddr("k")) || st.ResultFiles.Refs(ResultAddr("k")) != 0 {
		t.Fatal("a refused write left a file or a reference behind")
	}
}
