package store

import (
	"errors"
	"log/slog"
	"sync"
	"sync/atomic"
)

// diag is the store-wide fault accounting the sub-stores share: a logger
// for WARN-level I/O diagnostics and counters surfaced on GET /stats.
// Standalone sub-store constructors get a private diag; Store.Open hands
// one instance to every sub-store so the counters aggregate across the
// whole data directory.
type diag struct {
	logger     *slog.Logger
	trimErrors atomic.Uint64
	// gate orders file writes against Store.Close: a write holds it
	// shared and Close exclusively, so no file lands after Close returns.
	gate   sync.RWMutex
	closed bool
}

// ErrClosed is wrapped by every write the store refuses because it has
// been closed. Such a refusal is the ordinary end of a shutdown that
// raced a finishing job, not a storage fault.
var ErrClosed = errors.New("store: closed")

// write runs fn, one whole file write, unless the store is closed.
func (d *diag) write(fn func() error) error {
	d.gate.RLock()
	defer d.gate.RUnlock()
	if d.closed {
		return ErrClosed
	}
	return fn()
}

func newDiag(logger *slog.Logger) *diag {
	if logger == nil {
		logger = slog.Default()
	}
	return &diag{logger: logger}
}

// trimError counts one failed removal or listing during a trim/GC pass
// and logs it at WARN. Trim failures used to be silently swallowed on the
// best-effort paths, which hid a disk that could no longer delete.
func (d *diag) trimError(dir string, err error) {
	d.trimErrors.Add(1)
	d.logger.Warn("store: trim error", "dir", dir, "error", err)
}
