package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io/fs"
	"path/filepath"
	"sync"

	"secreta/internal/faultfs"
)

// ResultStore holds anonymize results as chunk files named by content,
// results/<ResultAddr(engine cache key)>.ndr, each written once and
// shared by every job that produced or recalled it. A done job the server
// retains, and a cache hit in flight, hold a reference on their file.
// Unreferenced files are the disk result cache: the -disk-cache-entries /
// -disk-cache-bytes caps bound them alone, trimmed oldest first; a
// referenced file is never trimmed. Open rebuilds the in-memory counts
// from the journal's done records.
type ResultStore struct {
	fsys       faultfs.FS
	dir        string
	diag       *diag
	maxEntries int
	maxBytes   int64

	mu      sync.Mutex
	refs    map[string]int           // absent means zero
	writing map[string]chan struct{} // closed when Put's write ends
	created int                      // Puts that wrote, or tried to
}

// ResultRef is a done anonymize job's reference on its result file plus
// its own parts of the result document (cache hit flag, label-bearing
// results array), journaled with its terminal record.
type ResultRef struct {
	Addr     string          `json:"addr"`
	CacheHit bool            `json:"cache_hit,omitempty"`
	Results  json.RawMessage `json:"results,omitempty"`
}

// trimEvery is the number of writes between cap trims: a trim walks the
// directory (a stat per file), too much to pay on every write, so the
// caps may overshoot by up to trimEvery files between passes.
const trimEvery = 64

// ResultAddr is the file name of the result stored under an engine cache
// key: its SHA-256, so any key is a safe single-segment name.
func ResultAddr(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// newResultStore serves the existing directory dir, counting a reference
// per done record in jobs; caps <= 0 pick the package defaults.
func newResultStore(fsys faultfs.FS, d *diag, dir string, maxEntries int, maxBytes int64, jobs []JobRecord) *ResultStore {
	if maxEntries <= 0 {
		maxEntries = DefaultDiskCacheEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultDiskCacheBytes
	}
	r := &ResultStore{fsys: fsys, dir: dir, diag: d, maxEntries: maxEntries, maxBytes: maxBytes,
		refs: make(map[string]int), writing: make(map[string]chan struct{})}
	for _, rec := range jobs {
		if rec.Result != nil {
			r.refs[rec.Result.Addr]++
		}
	}
	return r
}

// Acquire takes a reference on the file at addr if it exists, and
// reports whether it did.
func (r *ResultStore) Acquire(addr string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	ok := r.Has(addr)
	if ok {
		r.refs[addr]++
	}
	return ok
}

// Release drops one reference on addr. The file stays on disk; with no
// reference left it is a disk cache entry.
func (r *ResultStore) Release(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.refs[addr]--; r.refs[addr] <= 0 {
		delete(r.refs, addr)
	}
}

// Refs reports the number of references held on addr.
func (r *ResultStore) Refs(addr string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.refs[addr]
}

// Put takes a reference on the file at addr, first writing it through
// write unless it exists; replace writes a fresh copy over an existing
// file. Concurrent Puts of one address write it once: the others wait
// and share the file. Put reports whether it wrote the file; on error it
// holds no reference.
func (r *ResultStore) Put(addr string, replace bool, write func(*ChunkWriter) error) (bool, error) {
	r.mu.Lock()
	for r.writing[addr] != nil {
		busy := r.writing[addr]
		r.mu.Unlock()
		<-busy
		replace = false // the other writer just left a fresh copy, or none
		r.mu.Lock()
	}
	r.refs[addr]++
	if !replace && r.Has(addr) {
		r.mu.Unlock()
		return false, nil
	}
	done := make(chan struct{})
	r.writing[addr] = done
	r.mu.Unlock()

	err := r.diag.write(func() error {
		cw, err := r.create(addr)
		if err != nil {
			return err
		}
		if err := write(cw); err != nil {
			cw.Abort()
			return err
		}
		return cw.Commit()
	})

	r.mu.Lock()
	delete(r.writing, addr)
	close(done)
	r.created++
	due := err == nil && r.created%trimEvery == 0
	r.mu.Unlock()
	if err != nil {
		r.Release(addr)
		return false, err
	}
	if due {
		r.Trim(r.maxEntries, r.maxBytes)
	}
	return true, nil
}

// Trim removes the oldest unreferenced files until the unreferenced ones
// number at most maxEntries and total at most maxBytes (0 and 0 remove
// them all), and reports how many it removed. A file that cannot be
// removed is counted (trim_errors), logged and skipped.
func (r *ResultStore) Trim(maxEntries int, maxBytes int64) int {
	files, err := listDir(r.fsys, r.dir, resultExt)
	if err != nil {
		r.diag.trimError(r.dir, err)
		return 0
	}
	return r.trim(r.unreferenced(files), maxEntries, maxBytes)
}

// unreferenced picks the files no job references now: the cache entries.
func (r *ResultStore) unreferenced(files []dirFile) []dirFile {
	r.mu.Lock()
	defer r.mu.Unlock()
	var cached []dirFile
	for _, f := range files {
		if r.refs[f.name] == 0 {
			cached = append(cached, f)
		}
	}
	return cached
}

// trim removes the oldest of cached until the rest fit the caps. Each
// removal re-checks the count under the lock Acquire and Put take, so a
// file referenced at any point before its unlink survives.
func (r *ResultStore) trim(cached []dirFile, maxEntries int, maxBytes int64) int {
	left := statsOf(cached)
	removed := 0
	for _, f := range cached {
		if left.Count <= maxEntries && left.Bytes <= maxBytes {
			break
		}
		r.mu.Lock()
		referenced := r.refs[f.name] > 0
		var err error
		if !referenced {
			err = r.fsys.Remove(filepath.Join(r.dir, f.name+resultExt))
		}
		r.mu.Unlock()
		switch {
		case referenced, errors.Is(err, fs.ErrNotExist):
			// Referenced since the walk, or already gone: not a cache entry.
		case err != nil:
			r.diag.trimError(r.dir, err)
			continue // still on disk, so still counted against the caps
		default:
			removed++
		}
		left.Count--
		left.Bytes -= f.size
	}
	return removed
}

// stats sums all result files and the unreferenced ones.
func (r *ResultStore) stats() (all, unreferenced BlobStats) {
	files, _ := listDir(r.fsys, r.dir, resultExt)
	return statsOf(files), statsOf(r.unreferenced(files))
}
