package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"secreta/internal/faultfs"
)

// JobRecord is the durable state of one job as the journal tracks it. The
// Status strings are owned by the server (queued, running, done, failed,
// cancelled, timed_out); the journal treats them as opaque except for the
// transition rules encoded in the record ops below. Body is the original
// request payload, kept only while the job is non-terminal so a crash can
// re-queue it; terminal transitions drop it to keep snapshots small.
type JobRecord struct {
	ID   string `json:"id"`
	Seq  int    `json:"seq"`
	Kind string `json:"kind"`
	// Tenant is the owning tenant's ID when the server runs with API-key
	// scoping; empty in single-tenant mode. Journaled so ownership (and
	// with it cross-tenant 404s) survives a restart.
	Tenant     string          `json:"tenant,omitempty"`
	Status     string          `json:"status"`
	Error      string          `json:"error,omitempty"`
	DatasetRef string          `json:"dataset_ref,omitempty"`
	Body       json.RawMessage `json:"body,omitempty"`
	HasResult  bool            `json:"has_result,omitempty"`
	// Result is set for a done anonymize job: see ResultRef.
	Result      *ResultRef `json:"result,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   time.Time  `json:"started_at,omitempty"`
	FinishedAt  time.Time  `json:"finished_at,omitempty"`
}

// DatasetClaim records one tenant's ownership of one dataset blob.
// Datasets are content-addressed, so two tenants uploading identical
// bytes share one blob under two claims; the blob is only eligible for
// deletion once every claim is released. Bytes is the dataset's
// approximate in-RAM size — the unit the per-tenant stored-bytes quota
// accounts with.
type DatasetClaim struct {
	Ref    string `json:"ref"`
	Tenant string `json:"tenant"`
	Bytes  int64  `json:"bytes"`
}

// walOp is one journal record: a typed transition applied to the job
// table. Ops are idempotent under replay — a snapshot that raced a crash
// before WAL truncation replays cleanly over its own history.
type walOp struct {
	// Op is "submit", "start", "finish", "delete", "dataset_claim" or
	// "dataset_release".
	Op string    `json:"op"`
	At time.Time `json:"at"`
	// Job carries the full record for "submit"; the other job ops name an
	// existing job by ID. The dataset ops reuse ID for the dataset ref.
	Job *JobRecord `json:"job,omitempty"`
	ID  string     `json:"id,omitempty"`
	// Status, Error, HasResult and Result describe a "finish" transition.
	Status    string     `json:"status,omitempty"`
	Error     string     `json:"error,omitempty"`
	HasResult bool       `json:"has_result,omitempty"`
	Result    *ResultRef `json:"result,omitempty"`
	// Tenant and Bytes describe a dataset claim/release.
	Tenant string `json:"tenant,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// StatusRunning is the one status string the journal itself writes: a
// "start" op moves a job here. Exported (untyped) so the server's Status
// constant is defined from it and the two can never drift.
const StatusRunning = "running"

// Journal is the WAL-backed job table: every lifecycle transition is
// appended (checksummed, fsync'd) before it becomes observable, the
// materialized table is snapshotted every snapshotEvery appends, and the
// WAL is truncated after each durable snapshot. Open replays
// snapshot+WAL, repairing a torn tail. Safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	fsys   faultfs.FS
	dir    string
	f      faultfs.File
	closed bool
	table  map[string]*JobRecord
	// claims is the durable dataset-ownership table: ref -> tenant ->
	// approximate bytes. Empty in single-tenant mode (nothing ever
	// claims), so the snapshot and WAL stay byte-compatible with
	// pre-tenancy journals.
	claims        map[string]map[string]int64
	seq           int
	appends       int // since the last snapshot
	walRecords    int
	walBytes      int64
	lastSnapshot  time.Time
	snapshotEvery int
	replay        ReplayStats
}

// ReplayStats describes what the last OpenJournal recovered.
type ReplayStats struct {
	// SnapshotJobs counts jobs restored from the snapshot file.
	SnapshotJobs int `json:"snapshot_jobs"`
	// WALRecords counts valid WAL records replayed on top.
	WALRecords int `json:"wal_records"`
	// TornTail reports whether trailing bytes were dropped; TornBytes is
	// how many.
	TornTail  bool  `json:"torn_tail"`
	TornBytes int64 `json:"torn_bytes,omitempty"`
}

// snapshotFile is the JSON shape of journal/snapshot.json. Datasets
// (tenant ownership claims) is omitted when empty so single-tenant
// snapshots keep their historical shape.
type snapshotFile struct {
	Seq      int            `json:"seq"`
	TakenAt  time.Time      `json:"taken_at"`
	Jobs     []JobRecord    `json:"jobs"`
	Datasets []DatasetClaim `json:"datasets,omitempty"`
}

const (
	walFileName      = "wal.log"
	snapshotFileName = "snapshot.json"
)

// OpenJournal opens (creating if needed) the journal directory, loads the
// snapshot, replays the WAL over it, truncates any torn tail in place,
// and reopens the WAL for appending. snapshotEvery <= 0 picks
// DefaultSnapshotEvery.
func OpenJournal(dir string, snapshotEvery int) (*Journal, error) {
	return openJournal(faultfs.OS, dir, snapshotEvery)
}

// openJournal is OpenJournal over an explicit filesystem seam — the
// constructor Store.Open wires.
func openJournal(fsys faultfs.FS, dir string, snapshotEvery int) (*Journal, error) {
	if snapshotEvery <= 0 {
		snapshotEvery = DefaultSnapshotEvery
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating journal dir: %w", err)
	}
	j := &Journal{
		fsys:          fsys,
		dir:           dir,
		table:         make(map[string]*JobRecord),
		claims:        make(map[string]map[string]int64),
		snapshotEvery: snapshotEvery,
		lastSnapshot:  time.Now(),
	}
	snap, err := readSnapshotFile(fsys, filepath.Join(dir, snapshotFileName))
	if err != nil {
		return nil, err
	}
	if snap != nil {
		j.seq = snap.Seq
		j.lastSnapshot = snap.TakenAt
		for i := range snap.Jobs {
			rec := snap.Jobs[i]
			j.table[rec.ID] = &rec
			j.replay.SnapshotJobs++
		}
		for _, c := range snap.Datasets {
			j.claimLocked(c)
		}
	}
	walPath := filepath.Join(dir, walFileName)
	data, err := fsys.ReadFile(walPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("store: reading WAL: %w", err)
	}
	records, valid, torn := scanWAL(data)
	applied := int64(0) // byte offset after the last record actually applied
	for _, payload := range records {
		var op walOp
		if err := json.Unmarshal(payload, &op); err != nil {
			// A framed record that fails to parse is corruption the CRC
			// did not catch; treat everything from here on as the tail.
			// Crucially the repair must truncate HERE, at this record's
			// own offset — truncating at scanWAL's CRC-valid boundary
			// would keep the bad record in the file and re-stop every
			// future replay at it, orphaning everything appended after.
			torn = true
			valid = applied
			break
		}
		j.apply(&op)
		j.replay.WALRecords++
		applied += int64(walHeaderSize + len(payload))
	}
	j.replay.TornTail = torn
	if torn {
		j.replay.TornBytes = int64(len(data)) - valid
	}
	f, err := fsys.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening WAL: %w", err)
	}
	// Repair the tail in place: truncate to the last valid record and
	// append from there. O_APPEND is deliberately not used — a repaired
	// file must not resurrect dropped bytes, and a single writer seeking
	// to the end is equivalent.
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: repairing WAL tail: %w", err)
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seeking WAL: %w", err)
	}
	if torn {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: syncing repaired WAL: %w", err)
		}
	}
	j.f = f
	j.walRecords = len(records)
	j.walBytes = valid
	return j, nil
}

func readSnapshotFile(fsys faultfs.FS, path string) (*snapshotFile, error) {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		// The snapshot is written atomically, so a parse failure means
		// real corruption; refusing to boot beats silently dropping the
		// whole job history (the WAL alone is not the full state).
		return nil, fmt.Errorf("store: corrupt snapshot %s: %w", path, err)
	}
	return &snap, nil
}

// apply folds one op into the table. Idempotent: replaying a WAL over a
// snapshot that already contains its effects is a no-op.
func (j *Journal) apply(op *walOp) {
	switch op.Op {
	case "submit":
		if op.Job == nil {
			return
		}
		if _, ok := j.table[op.Job.ID]; ok {
			return
		}
		rec := *op.Job
		j.table[rec.ID] = &rec
		if rec.Seq > j.seq {
			j.seq = rec.Seq
		}
	case "start":
		rec, ok := j.table[op.ID]
		if !ok || rec.FinishedAt != (time.Time{}) {
			return
		}
		rec.Status = StatusRunning
		rec.StartedAt = op.At
	case "finish":
		rec, ok := j.table[op.ID]
		if !ok || rec.FinishedAt != (time.Time{}) {
			return
		}
		rec.Status = op.Status
		rec.Error = op.Error
		rec.HasResult = op.HasResult
		rec.Result = op.Result
		rec.FinishedAt = op.At
		rec.Body = nil
	case "delete":
		delete(j.table, op.ID)
	case "dataset_claim":
		j.claimLocked(DatasetClaim{Ref: op.ID, Tenant: op.Tenant, Bytes: op.Bytes})
	case "dataset_release":
		if tenants, ok := j.claims[op.ID]; ok {
			delete(tenants, op.Tenant)
			if len(tenants) == 0 {
				delete(j.claims, op.ID)
			}
		}
	}
}

// claimLocked folds one ownership claim into the claims table
// (idempotent: re-claiming refreshes the byte figure). Caller holds j.mu
// or is still single-threaded inside openJournal.
func (j *Journal) claimLocked(c DatasetClaim) {
	if c.Ref == "" || c.Tenant == "" {
		return
	}
	tenants, ok := j.claims[c.Ref]
	if !ok {
		tenants = make(map[string]int64)
		j.claims[c.Ref] = tenants
	}
	tenants[c.Tenant] = c.Bytes
}

// append journals one op: marshal, frame, fsync, fold into the table,
// and snapshot + truncate when the cadence is due.
func (j *Journal) append(op *walOp) error {
	payload, err := json.Marshal(op)
	if err != nil {
		return fmt.Errorf("store: encoding journal record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: %w", ErrClosed)
	}
	if err := appendWALRecord(j.f, payload); err != nil {
		// A short write leaves a torn frame mid-file; without rolling
		// back, every later append would land after it and be silently
		// dropped by replay. Truncate to the last durable frame so one
		// failed append costs one record, not the rest of the log.
		if terr := j.f.Truncate(j.walBytes); terr == nil {
			j.f.Seek(j.walBytes, 0)
		}
		return err
	}
	j.walRecords++
	j.walBytes += int64(walHeaderSize + len(payload))
	j.apply(op)
	j.appends++
	if j.appends >= j.snapshotEvery {
		if err := j.snapshotLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Submit journals a new job. rec.Status should be the server's queued
// state; rec.Body must carry everything needed to re-run the job after a
// crash.
func (j *Journal) Submit(rec JobRecord) error {
	return j.append(&walOp{Op: "submit", At: time.Now(), Job: &rec})
}

// Start journals the queued → running transition.
func (j *Journal) Start(id string) error {
	return j.append(&walOp{Op: "start", At: time.Now(), ID: id})
}

// Finish journals a terminal transition (done/failed/cancelled/timed_out
// in the server's vocabulary). hasResult records that a result blob was
// durably written before this call; ref, for a done anonymize job, names
// its result file (written before this call too).
func (j *Journal) Finish(id, status, errMsg string, hasResult bool, ref *ResultRef) error {
	return j.append(&walOp{Op: "finish", At: time.Now(), ID: id, Status: status, Error: errMsg, HasResult: hasResult, Result: ref})
}

// Delete journals the removal of a job record (client delete or retention
// eviction).
func (j *Journal) Delete(id string) error {
	return j.append(&walOp{Op: "delete", At: time.Now(), ID: id})
}

// ClaimDataset journals one tenant's ownership of a dataset blob.
// Idempotent per (ref, tenant).
func (j *Journal) ClaimDataset(ref, tenant string, bytes int64) error {
	return j.append(&walOp{Op: "dataset_claim", At: time.Now(), ID: ref, Tenant: tenant, Bytes: bytes})
}

// ReleaseDataset journals the removal of one tenant's claim (explicit
// DELETE or GC eviction). Releasing a claim that does not exist is a
// no-op under replay, like deleting a missing job.
func (j *Journal) ReleaseDataset(ref, tenant string) error {
	return j.append(&walOp{Op: "dataset_release", At: time.Now(), ID: ref, Tenant: tenant})
}

// DatasetClaims returns a copy of the ownership table, sorted by
// (ref, tenant) for determinism — the server rebuilds its per-tenant
// quota accounting from this at boot.
func (j *Journal) DatasetClaims() []DatasetClaim {
	j.mu.Lock()
	var out []DatasetClaim
	for ref, tenants := range j.claims {
		for tenant, bytes := range tenants {
			out = append(out, DatasetClaim{Ref: ref, Tenant: tenant, Bytes: bytes})
		}
	}
	j.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].Ref != out[b].Ref {
			return out[a].Ref < out[b].Ref
		}
		return out[a].Tenant < out[b].Tenant
	})
	return out
}

// Jobs returns a copy of the job table sorted by submission order.
func (j *Journal) Jobs() []JobRecord {
	j.mu.Lock()
	out := make([]JobRecord, 0, len(j.table))
	for _, rec := range j.table {
		out = append(out, *rec)
	}
	j.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Seq returns the highest job sequence number the journal has seen, so a
// recovering server can continue numbering without collisions.
func (j *Journal) Seq() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Snapshot forces a snapshot + WAL truncation now.
func (j *Journal) Snapshot() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: %w", ErrClosed)
	}
	return j.snapshotLocked()
}

// snapshotLocked writes the job table atomically, then truncates the WAL.
// Crash windows are safe in both directions: before the rename the old
// snapshot + full WAL replay to the same state; between rename and
// truncation the new snapshot absorbs a replay of its own WAL because
// apply is idempotent. Caller holds j.mu.
func (j *Journal) snapshotLocked() error {
	snap := snapshotFile{Seq: j.seq, TakenAt: time.Now()}
	for _, rec := range j.table {
		snap.Jobs = append(snap.Jobs, *rec)
	}
	sort.Slice(snap.Jobs, func(a, b int) bool { return snap.Jobs[a].Seq < snap.Jobs[b].Seq })
	for ref, tenants := range j.claims {
		for tenant, bytes := range tenants {
			snap.Datasets = append(snap.Datasets, DatasetClaim{Ref: ref, Tenant: tenant, Bytes: bytes})
		}
	}
	sort.Slice(snap.Datasets, func(a, b int) bool {
		if snap.Datasets[a].Ref != snap.Datasets[b].Ref {
			return snap.Datasets[a].Ref < snap.Datasets[b].Ref
		}
		return snap.Datasets[a].Tenant < snap.Datasets[b].Tenant
	})
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}
	if err := writeFileAtomic(j.fsys, filepath.Join(j.dir, snapshotFileName), data); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating WAL: %w", err)
	}
	if _, err := j.f.Seek(0, 0); err != nil {
		return fmt.Errorf("store: rewinding WAL: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing truncated WAL: %w", err)
	}
	j.appends = 0
	j.walRecords = 0
	j.walBytes = 0
	j.lastSnapshot = snap.TakenAt
	return nil
}

// Close snapshots one last time (so the next boot replays nothing) and
// closes the WAL file. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	snapErr := j.snapshotLocked()
	j.closed = true
	closeErr := j.f.Close()
	if snapErr != nil {
		return snapErr
	}
	return closeErr
}

// JournalStats is the journal's health snapshot for GET /stats.
type JournalStats struct {
	// Jobs is the current job-table population.
	Jobs int `json:"jobs"`
	// WALRecords / WALBytes measure the log since the last truncation.
	WALRecords int   `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
	// LastSnapshotAgeSec is how stale the snapshot is.
	LastSnapshotAgeSec float64 `json:"last_snapshot_age_s"`
	// Replay describes what the last boot recovered.
	Replay ReplayStats `json:"replay"`
}

// Stats snapshots the journal counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{
		Jobs:               len(j.table),
		WALRecords:         j.walRecords,
		WALBytes:           j.walBytes,
		LastSnapshotAgeSec: time.Since(j.lastSnapshot).Seconds(),
		Replay:             j.replay,
	}
}
