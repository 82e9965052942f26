package socialnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// walEv builds a distinct like event for WAL-level tests.
func walEv(i int) LikeEvent {
	return LikeEvent{At: at(i), User: UserID(i%7 + 1), Page: PageID(i + 1), Source: SourceLike}
}

// noThreshold never triggers the SyncEvery path: every sync in the test
// is explicit.
var noThreshold = WALOptions{SyncEvery: 1 << 30, SyncInterval: -1}

// TestUnsyncedCounterExact pins the counter's accounting discipline:
// a shard sync subtracts exactly the records it made durable — never
// more (the old syncShard subtracted nothing, so past the threshold
// every append paid an inline fsync), never everything (the old Sync
// stored zero, erasing appends that raced the pass).
func TestUnsyncedCounterExact(t *testing.T) {
	w, _, err := openWAL(t.TempDir(), 4, make([]uint64, 4), noThreshold)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	w.Append(0, walEv(0), walEv(1), walEv(2))
	w.Append(1, walEv(3), walEv(4))
	if got := w.unsynced.Load(); got != 5 {
		t.Fatalf("unsynced = %d after 5 appends, want 5", got)
	}
	// An inline shard sync (the SyncEvery threshold path) must subtract
	// its shard's records, leaving the other shard's count intact.
	w.syncShard(w.shards[0])
	if got := w.unsynced.Load(); got != 2 {
		t.Fatalf("unsynced = %d after syncing shard 0, want 2 (shard 1's events)", got)
	}
	w.Append(2, walEv(5))
	if got := w.unsynced.Load(); got != 3 {
		t.Fatalf("unsynced = %d, want 3", got)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.unsynced.Load(); got != 0 {
		t.Fatalf("unsynced = %d after full sync, want 0", got)
	}
	w.Append(3, walEv(6))
	if got := w.unsynced.Load(); got != 1 {
		t.Fatalf("unsynced = %d after post-sync append, want 1", got)
	}
}

// TestSyncKeepsRacingAppendCounts reproduces the Store(0) race
// deterministically: an append that lands on a shard AFTER the sync
// pass has already fsynced that shard must keep its count — the old
// pass-end Store(0) erased it, letting the record sit volatile past
// the SyncEvery/SyncInterval contract.
func TestSyncKeepsRacingAppendCounts(t *testing.T) {
	w, _, err := openWAL(t.TempDir(), 2, make([]uint64, 2), noThreshold)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	w.Append(0, walEv(0), walEv(1))
	injected := false
	w.testSyncedShard = func(shard int) {
		if shard == 0 && !injected {
			injected = true
			w.Append(0, walEv(2)) // lands mid-pass, after shard 0's fsync
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.testSyncedShard = nil
	if !injected {
		t.Fatal("injection hook never ran")
	}
	if got := w.unsynced.Load(); got != 1 {
		t.Fatalf("unsynced = %d after pass with racing append, want 1 (the racing append's count was erased)", got)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.unsynced.Load(); got != 0 {
		t.Fatalf("unsynced = %d after follow-up sync, want 0", got)
	}
}

// TestSyncCounterConcurrentAccounting hammers Append against Sync and
// checks the invariant the counter fixes established: unsynced always
// equals the number of appended-but-unsynced records (per-shard
// next - synced), at quiescence and after a final pass — and the full
// record set survives a reopen.
func TestSyncCounterConcurrentAccounting(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir, 4, make([]uint64, 4), noThreshold)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 4, 300
	stop := make(chan struct{})
	var syncer sync.WaitGroup
	syncer.Add(1)
	go func() {
		defer syncer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = w.Sync()
			}
		}
	}()
	var appenders sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		appenders.Add(1)
		go func(g int) {
			defer appenders.Done()
			for i := 0; i < perG; i++ {
				w.Append((g+i)%4, walEv(g*perG+i))
			}
		}(g)
	}
	appenders.Wait()
	close(stop)
	syncer.Wait()

	var pending int64
	for _, sh := range w.shards {
		sh.mu.Lock()
		pending += int64(sh.next - sh.synced)
		sh.mu.Unlock()
	}
	if got := w.unsynced.Load(); got != pending {
		t.Fatalf("unsynced = %d but %d records are actually pending", got, pending)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.unsynced.Load(); got != 0 {
		t.Fatalf("unsynced = %d after final sync, want 0", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, recovered, err := openWAL(dir, 4, make([]uint64, 4), noThreshold)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	total := 0
	for _, rec := range recovered {
		total += len(rec.Records)
	}
	if total != goroutines*perG {
		t.Fatalf("recovered %d records, want %d", total, goroutines*perG)
	}
}

// TestAppendRefusedAfterStickyError: once a write or sync fails, the
// WAL must stop appending — more records would desync the on-disk
// chain from the stream indices Offsets reports — and a reopen must
// recover exactly the pre-error prefix and accept appends again.
func TestAppendRefusedAfterStickyError(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir, 1, []uint64{0}, noThreshold)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(0, walEv(0))
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// Sabotage: close the segment file behind the WAL's back, so the
	// next flush hits a dead fd.
	if err := w.shards[0].f.Close(); err != nil {
		t.Fatal(err)
	}
	w.Append(0, walEv(1)) // buffers fine; not yet flushed
	if err := w.Sync(); err == nil {
		t.Fatal("sync over a closed fd should fail")
	}
	if w.Err() == nil {
		t.Fatal("expected sticky error")
	}
	off := w.Offsets()[0]
	w.Append(0, walEv(2)) // must be refused
	if got := w.Offsets()[0]; got != off {
		t.Fatalf("append after sticky error advanced offsets %d -> %d", off, got)
	}
	_ = w.Close() // returns the sticky error; the test cares about disk state

	w2, recovered, err := openWAL(dir, 1, []uint64{0}, noThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(recovered[0].Records); got != 1 {
		t.Fatalf("recovered %d records, want exactly the pre-error prefix of 1", got)
	}
	w2.Append(0, walEv(3))
	if err := w2.Sync(); err != nil {
		t.Fatalf("append after clean reopen: %v", err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3, recovered3, err := openWAL(dir, 1, []uint64{0}, noThreshold)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if got := len(recovered3[0].Records); got != 2 {
		t.Fatalf("recovered %d records after reopen+append, want 2", got)
	}
}

// TestGroupCommitDurableWithoutSync pins the SyncEvery=1 contract under
// the group committer: every Append that returned is already on disk —
// no Sync, no Close — so a crash image taken at any quiescent instant
// holds every acknowledged record.
func TestGroupCommitDurableWithoutSync(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir, 4, make([]uint64, 4), WALOptions{SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				w.Append(g%4, walEv(g*perG+i))
			}
		}(g)
	}
	wg.Wait()

	crash := cloneDir(t, dir) // no Sync, no Close: simulate SIGKILL
	w2, recovered, err := openWAL(crash, 4, make([]uint64, 4), noThreshold)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	total := 0
	for _, rec := range recovered {
		total += len(rec.Records)
	}
	if total != goroutines*perG {
		t.Fatalf("crash image holds %d records, want all %d acknowledged appends", total, goroutines*perG)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeRawSegment writes a shard-0 segment file starting at stream
// index 0 with the given header version and pre-built record payloads,
// framed with length and CRC — how segments of other format versions
// look on disk. It returns the file path and bytes.
func writeRawSegment(t *testing.T, dir string, version uint32, payloads ...[]byte) (string, []byte) {
	t.Helper()
	buf := make([]byte, segHeaderSize)
	copy(buf[0:8], segMagic)
	binary.LittleEndian.PutUint32(buf[8:12], version)
	for _, payload := range payloads {
		var frame [8]byte
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
		buf = append(buf, frame[:]...)
		buf = append(buf, payload...)
	}
	path := filepath.Join(dir, segmentFileName(0, 0))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf
}

// requireOpenRejects asserts that opening dir's WAL fails with
// ErrCorruptSegment naming want, and that the segment at path is left
// on disk byte for byte.
func requireOpenRejects(t *testing.T, dir, path string, content []byte, want string) {
	t.Helper()
	w, _, err := openWAL(dir, 1, []uint64{0}, noThreshold)
	if err == nil {
		w.Close()
		t.Fatal("open succeeded over a segment of an unsupported version")
	}
	if !errors.Is(err, ErrCorruptSegment) || !strings.Contains(err.Error(), want) {
		t.Fatalf("open error = %v, want ErrCorruptSegment naming %q", err, want)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("segment removed by a failed open: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("segment rewritten by a failed open")
	}
}

// TestUnknownSegmentVersionIsKept: a complete header with the segment
// magic but a version this build does not read is not a torn segment
// creation. Open must fail naming the version and leave the file —
// dropping it would silently discard every record it holds.
func TestUnknownSegmentVersionIsKept(t *testing.T) {
	dir := t.TempDir()
	payload := encodeEvent(nil, walEv(0))[8:]
	path, content := writeRawSegment(t, dir, 3, payload)
	requireOpenRejects(t, dir, path, content, "version 3")
}

// TestRejectsV1Segments: a chain in the retired version-1 framing
// (fixed like records, no type byte) fails to open with an error
// naming the version, and stays on disk.
func TestRejectsV1Segments(t *testing.T) {
	dir := t.TempDir()
	payload := appendLikeBody(nil, walEv(0))
	path, content := writeRawSegment(t, dir, 1, payload, payload)
	requireOpenRejects(t, dir, path, content, "version 1")
}
