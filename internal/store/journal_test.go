package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"secreta/internal/faultfs"
)

func submitRec(id string, seq int) JobRecord {
	return JobRecord{
		ID: id, Seq: seq, Kind: "anonymize", Status: "queued",
		Body: json.RawMessage(`{"x":1}`), SubmittedAt: time.Now(),
	}
}

func TestJournalLifecycleSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Submit(submitRec("j-000001", 1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Submit(submitRec("j-000002", 2)); err != nil {
		t.Fatal(err)
	}
	if err := j.Start("j-000001"); err != nil {
		t.Fatal(err)
	}
	if err := j.Finish("j-000001", "done", "", true, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Start("j-000002"); err != nil {
		t.Fatal(err)
	}
	// Close the WAL file directly — a crash, not a clean Close (which
	// would snapshot and truncate).
	j.mu.Lock()
	j.f.Close()
	j.closed = true
	j.mu.Unlock()

	j2, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	jobs := j2.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(jobs))
	}
	if jobs[0].ID != "j-000001" || jobs[0].Status != "done" || !jobs[0].HasResult {
		t.Fatalf("job 1 replayed as %+v", jobs[0])
	}
	if jobs[0].Body != nil {
		t.Fatal("terminal job kept its request body")
	}
	if jobs[1].ID != "j-000002" || jobs[1].Status != "running" {
		t.Fatalf("job 2 replayed as %+v", jobs[1])
	}
	if len(jobs[1].Body) == 0 {
		t.Fatal("in-flight job lost its request body — cannot be re-queued")
	}
	if j2.Seq() != 2 {
		t.Fatalf("seq=%d want 2", j2.Seq())
	}
	if j2.Stats().Replay.TornTail {
		t.Fatal("clean crash replay reported a torn tail")
	}
}

func TestJournalSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 4) // snapshot every 4 appends
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 1; i <= 6; i++ {
		if err := j.Submit(submitRec(jobID(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	// 6 appends: snapshot fired at 4, so the WAL holds only records 5-6.
	if st.WALRecords != 2 {
		t.Fatalf("wal_records=%d want 2 after snapshot truncation", st.WALRecords)
	}
	if st.Jobs != 6 {
		t.Fatalf("table jobs=%d want 6", st.Jobs)
	}
	snap, err := readSnapshotFile(faultfs.OS, filepath.Join(dir, snapshotFileName))
	if err != nil || snap == nil {
		t.Fatalf("snapshot missing after cadence: %v", err)
	}
	if len(snap.Jobs) != 4 {
		t.Fatalf("snapshot holds %d jobs, want 4", len(snap.Jobs))
	}

	// Reopen: snapshot + WAL replay must reassemble all 6.
	j.mu.Lock()
	j.f.Close()
	j.closed = true
	j.mu.Unlock()
	j2, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := len(j2.Jobs()); got != 6 {
		t.Fatalf("replayed %d jobs, want 6", got)
	}
	rs := j2.Stats().Replay
	if rs.SnapshotJobs != 4 || rs.WALRecords != 2 {
		t.Fatalf("replay stats %+v, want 4 snapshot jobs + 2 wal records", rs)
	}
}

// TestJournalReplayIdempotentOverSnapshot simulates the crash window
// between snapshot rename and WAL truncation: the WAL still holds ops the
// snapshot already absorbed, and replay must not double-apply them.
func TestJournalReplayIdempotentOverSnapshot(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Submit(submitRec("j-000001", 1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Finish("j-000001", "failed", "boom", false, nil); err != nil {
		t.Fatal(err)
	}
	// Keep a copy of the WAL, snapshot (which truncates), then restore
	// the old WAL — exactly the state a crash between the two leaves.
	walPath := filepath.Join(dir, walFileName)
	walCopy, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	j.f.Close()
	j.closed = true
	j.mu.Unlock()
	if err := os.WriteFile(walPath, walCopy, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	jobs := j2.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("replayed %d jobs, want 1", len(jobs))
	}
	if jobs[0].Status != "failed" || jobs[0].Error != "boom" {
		t.Fatalf("double-applied replay produced %+v", jobs[0])
	}
}

func TestJournalTornTailRepairedAndAppendable(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Submit(submitRec("j-000001", 1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Submit(submitRec("j-000002", 2)); err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	j.f.Close()
	j.closed = true
	j.mu.Unlock()

	// Tear the tail: append half a record's worth of garbage.
	walPath := filepath.Join(dir, walFileName)
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x07, 0x00, 0x00, 0x00, 0xaa}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatalf("torn tail must not fail the boot: %v", err)
	}
	rs := j2.Stats().Replay
	if !rs.TornTail || rs.TornBytes != 5 {
		t.Fatalf("replay stats %+v, want torn tail of 5 bytes", rs)
	}
	if got := len(j2.Jobs()); got != 2 {
		t.Fatalf("replayed %d jobs, want 2", got)
	}
	// The repaired log must accept appends and replay them next boot.
	if err := j2.Finish("j-000002", "done", "", false, nil); err != nil {
		t.Fatal(err)
	}
	j2.mu.Lock()
	j2.f.Close()
	j2.closed = true
	j2.mu.Unlock()
	j3, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	jobs := j3.Jobs()
	if len(jobs) != 2 || jobs[1].Status != "done" {
		t.Fatalf("post-repair append lost: %+v", jobs)
	}
	if j3.Stats().Replay.TornTail {
		t.Fatal("repair did not stick: tail torn again on third boot")
	}
}

func TestJournalDeleteAndCloseSnapshot(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := j.Submit(submitRec(jobID(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Delete("j-000002"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	j2, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	jobs := j2.Jobs()
	if len(jobs) != 2 || jobs[0].ID != "j-000001" || jobs[1].ID != "j-000003" {
		t.Fatalf("post-delete replay: %+v", jobs)
	}
	// Clean close snapshots: nothing left in the WAL to replay.
	rs := j2.Stats().Replay
	if rs.WALRecords != 0 {
		t.Fatalf("clean close left %d WAL records", rs.WALRecords)
	}
	// Seq survives the delete of the highest job.
	if j2.Seq() != 3 {
		t.Fatalf("seq=%d want 3", j2.Seq())
	}
}

func jobID(i int) string {
	return []string{"", "j-000001", "j-000002", "j-000003", "j-000004", "j-000005", "j-000006"}[i]
}

// TestJournalUnparseableRecordTruncatedAtItsOffset: a CRC-valid record
// whose payload is not valid JSON must become the truncation point —
// truncating past it would keep it in the file and make every future
// boot re-stop there, orphaning all later appends.
func TestJournalUnparseableRecordTruncatedAtItsOffset(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Submit(submitRec("j-000001", 1)); err != nil {
		t.Fatal(err)
	}
	// Append a perfectly framed (CRC-valid) but unparseable record, then
	// a valid one after it, directly through the framing layer.
	j.mu.Lock()
	if err := appendWALRecord(j.f, []byte("not json {")); err != nil {
		t.Fatal(err)
	}
	j.mu.Unlock()
	if err := j.Submit(submitRec("j-000002", 2)); err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	j.f.Close()
	j.closed = true
	j.mu.Unlock()

	j2, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rs := j2.Stats().Replay
	if !rs.TornTail {
		t.Fatal("unparseable record not reported as torn")
	}
	if got := len(j2.Jobs()); got != 1 {
		t.Fatalf("replayed %d jobs, want 1 (records after corruption are lost)", got)
	}
	// The repair removed the bad record: appends after it replay cleanly
	// on the next boot instead of being orphaned behind it forever.
	if err := j2.Submit(submitRec("j-000003", 3)); err != nil {
		t.Fatal(err)
	}
	j2.mu.Lock()
	j2.f.Close()
	j2.closed = true
	j2.mu.Unlock()
	j3, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if rs := j3.Stats().Replay; rs.TornTail {
		t.Fatalf("bad record survived the repair: %+v", rs)
	}
	jobs := j3.Jobs()
	if len(jobs) != 2 || jobs[1].ID != "j-000003" {
		t.Fatalf("post-repair appends lost: %+v", jobs)
	}
}
