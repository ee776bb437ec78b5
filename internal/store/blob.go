package store

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"

	"secreta/internal/faultfs"
)

// ErrNoBlob is returned by BlobDir.Get when no blob with the given name
// exists.
var ErrNoBlob = errors.New("store: no such blob")

// BlobDir is one flat directory of named blob files with atomic, fsync'd
// writes. Names are single-segment identifiers (fingerprints, job IDs);
// the BlobDir appends its extension. Safe for concurrent use — atomicity
// comes from the filesystem (temp file + rename), not a lock, so readers
// always see either the old or the new content of a blob, never a torn
// write.
type BlobDir struct {
	fsys faultfs.FS
	diag *diag
	dir  string
	ext  string
}

// NewBlobDir creates dir if needed and returns a BlobDir whose files all
// carry ext (e.g. ".json").
func NewBlobDir(dir, ext string) (*BlobDir, error) {
	return newBlobDir(faultfs.OS, newDiag(nil), dir, ext)
}

// newBlobDir is NewBlobDir over an explicit filesystem seam and shared
// diagnostics — the constructor Store.Open wires.
func newBlobDir(fsys faultfs.FS, d *diag, dir, ext string) (*BlobDir, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating blob dir: %w", err)
	}
	return &BlobDir{fsys: fsys, diag: d, dir: dir, ext: ext}, nil
}

// Dir returns the directory path.
func (b *BlobDir) Dir() string { return b.dir }

func (b *BlobDir) path(name string) (string, error) {
	if err := validBlobName(name); err != nil {
		return "", err
	}
	return filepath.Join(b.dir, name+b.ext), nil
}

// Put durably writes data under name, replacing any previous blob.
func (b *BlobDir) Put(name string, data []byte) error {
	p, err := b.path(name)
	if err != nil {
		return err
	}
	return b.diag.write(func() error { return writeFileAtomic(b.fsys, p, data) })
}

// Get reads the blob under name; a missing blob answers ErrNoBlob.
func (b *BlobDir) Get(name string) ([]byte, error) {
	p, err := b.path(name)
	if err != nil {
		return nil, err
	}
	data, err := b.fsys.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %q", ErrNoBlob, name)
	}
	return data, err
}

// Has reports whether a blob named name exists.
func (b *BlobDir) Has(name string) bool {
	p, err := b.path(name)
	if err != nil {
		return false
	}
	_, err = b.fsys.Stat(p)
	return err == nil
}

// Delete removes the blob under name. Deleting a missing blob is a no-op:
// the postcondition already holds.
func (b *BlobDir) Delete(name string) error {
	p, err := b.path(name)
	if err != nil {
		return err
	}
	if err := b.fsys.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// Names lists the resident blob names, sorted.
func (b *BlobDir) Names() ([]string, error) {
	files, err := listDir(b.fsys, b.dir, b.ext)
	out := names(files)
	sort.Strings(out)
	return out, err
}

// Stats sums blob count and bytes. Unreadable entries are skipped —
// stats are advisory, not transactional.
func (b *BlobDir) Stats() BlobStats {
	files, _ := listDir(b.fsys, b.dir, b.ext)
	return statsOf(files)
}
