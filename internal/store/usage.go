package store

import "path/filepath"

// Disk-usage accounting and eviction-ordering helpers for the retention
// sweeper (the server's GC): the sweeper needs a fresh byte total for the
// whole data directory (the cached Stats walk is deliberately stale) and
// an oldest-first ordering over the evictable blob populations.

// DiskUsage walks the data directory and returns the total bytes of
// every regular file in it — blobs, sidecars, chunk files, the WAL and
// snapshot, and any atomic-write temp files still in flight. This is the
// figure -data-max-bytes caps. The walk is uncached (unlike Stats) so
// the GC sweeper always acts on current occupancy; unreadable entries
// are skipped, matching the advisory Stats convention.
func (s *Store) DiskUsage() int64 {
	var total int64
	for _, dir := range s.usageDirs() {
		entries, err := s.fsys.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue
			}
			total += info.Size()
		}
	}
	return total
}

// usageDirs lists every directory DiskUsage sums — the root (probe and
// temp debris) plus each sub-store.
func (s *Store) usageDirs() []string {
	return []string{
		s.Dir,
		filepath.Join(s.Dir, "datasets"),
		filepath.Join(s.Dir, "results"),
		filepath.Join(s.Dir, "traces"),
		filepath.Join(s.Dir, "journal"),
	}
}

// IDsByAge lists the stored dataset IDs oldest-first by blob modification
// time — the eviction order the GC sweeper walks when unreferenced
// dataset blobs must go. Listing failures are counted as trim errors and
// answer an empty slice rather than wedging the sweep.
func (d *DatasetStore) IDsByAge() []string {
	files, err := listDir(d.blobs.fsys, d.blobs.dir, d.blobs.ext)
	if err != nil {
		d.blobs.diag.trimError(d.blobs.dir, err)
		return nil
	}
	return names(files)
}
