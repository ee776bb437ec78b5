package store

import (
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"secreta/internal/faultfs"
)

// writeFileAtomic durably writes data to path: an fsync'd temp file in
// the same directory, renamed over the target, then the directory entry
// fsync'd. A crash at any point leaves either the old file or the new
// one, never a torn mix. Every byte flows through fsys, so tests can
// inject a fault at any step.
func writeFileAtomic(fsys faultfs.FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		fsys.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fsys.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmpName)
		return err
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		fsys.Remove(tmpName)
		return err
	}
	return fsys.SyncDir(dir)
}

// sweepTempFiles removes orphaned ".tmp-*" files from dir — the debris a
// crash between CreateTemp and Rename leaves behind. It reports how many
// were removed; listing or removal failures are logged and skipped, never
// fatal (an orphan costs disk space, not correctness).
func sweepTempFiles(fsys faultfs.FS, logger *slog.Logger, dir string) int {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		// A directory that does not exist yet (first boot) has no orphans.
		if !errors.Is(err, fs.ErrNotExist) {
			logger.Warn("store: orphan sweep: listing", "dir", dir, "error", err)
		}
		return 0
	}
	swept := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), ".tmp-") {
			continue
		}
		p := filepath.Join(dir, e.Name())
		if err := fsys.Remove(p); err != nil {
			logger.Warn("store: orphan sweep: removing", "path", p, "error", err)
			continue
		}
		swept++
	}
	return swept
}

// validBlobName guards against path traversal and reserved names: blob
// names become file names verbatim (plus the store's extension), so they
// must be plain single-segment identifiers. Dataset fingerprints, job IDs
// and hashed cache keys all satisfy this.
func validBlobName(name string) error {
	if name == "" || name == "." || name == ".." {
		return fmt.Errorf("store: invalid blob name %q", name)
	}
	if strings.ContainsAny(name, "/\\") || strings.ContainsRune(name, os.PathSeparator) {
		return fmt.Errorf("store: invalid blob name %q", name)
	}
	return nil
}

// dirFile is one committed file of a store directory: its name without
// the extension, size and modification time.
type dirFile struct {
	name  string
	size  int64
	mtime int64
}

// listDir lists the committed files in dir that carry ext, oldest first
// by modification time (ties by name). Temp files and entries whose info
// cannot be read are skipped — listings are advisory.
func listDir(fsys faultfs.FS, dir, ext string) ([]dirFile, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []dirFile
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ext)
		if e.IsDir() || !ok || name == "" || strings.HasPrefix(name, ".tmp-") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, dirFile{name, info.Size(), info.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mtime != files[j].mtime {
			return files[i].mtime < files[j].mtime
		}
		return files[i].name < files[j].name
	})
	return files, nil
}

// names lists the files' names, in their order.
func names(files []dirFile) []string {
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = f.name
	}
	return out
}

// statsOf sums the files' count and bytes.
func statsOf(files []dirFile) BlobStats {
	s := BlobStats{Count: len(files)}
	for _, f := range files {
		s.Bytes += f.size
	}
	return s
}
