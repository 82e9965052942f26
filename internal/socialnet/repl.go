package socialnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Replication ships the durable journal's segment chains from a leader
// to followers (DESIGN §15). The per-shard stream index that names a
// record's position in its WAL chain — the coordinate the checkpoint
// manifest's Offsets already use — doubles as the replication cursor: a
// follower bootstraps from the leader's latest snapshot, then tails
// each shard's chain from its local next index, fetching raw CRC-framed
// record bytes and applying them through the same two-pass replay that
// crash recovery uses. The shipped frames are persisted verbatim into
// the follower's own chains, so a follower's directory is a durable
// store in its own right: reopening it is just OpenDurable, and a torn
// tail from a mid-ship crash is repaired by the ordinary truncation
// path, then refetched.

// ErrReplGap reports a replication cursor that points below the
// leader's surviving segment chain: a checkpoint compacted the records
// away. The follower cannot tail across the gap and must re-bootstrap
// from the current snapshot.
var ErrReplGap = errors.New("socialnet: replication cursor predates the leader's segment chain")

// DefaultReplBatchBytes bounds one segment-feed response.
const DefaultReplBatchBytes = 1 << 20

// maxReplBatchBytes caps what a single feed request may ask for.
const maxReplBatchBytes = 8 << 20

// ReplManifestDoc describes a leader's replication state: what the
// current snapshot covers (the bootstrap floor) and how far each WAL
// shard's durable stream extends right now (the catch-up target).
type ReplManifestDoc struct {
	Seq       int64  `json:"seq"`
	Shards    int    `json:"shards"`     // journal shard count (snapshot shape)
	WALShards int    `json:"wal_shards"` // segment chain count
	Snapshot  string `json:"snapshot"`
	// SnapshotOffsets are the manifest's coverage offsets: every record
	// below SnapshotOffsets[i] is contained in Snapshot.
	SnapshotOffsets []uint64 `json:"snapshot_offsets"`
	// Offsets are the per-shard fsynced high-water marks — the furthest
	// a follower can currently tail.
	Offsets []uint64 `json:"offsets"`
}

// errNotDurable gates the replication surfaces to durable stores.
var errNotDurable = errors.New("socialnet: replication requires a durable store")

// ReplManifest reports the store's current replication manifest. Only
// durable stores can lead: the feed serves segment files.
func (s *Store) ReplManifest() (ReplManifestDoc, error) {
	if s.wal == nil {
		return ReplManifestDoc{}, errNotDurable
	}
	m, err := readManifest(s.wal.Dir())
	if err != nil {
		return ReplManifestDoc{}, err
	}
	return ReplManifestDoc{
		Seq:             m.Seq,
		Shards:          m.Shards,
		WALShards:       m.WALShards,
		Snapshot:        m.Snapshot,
		SnapshotOffsets: m.Offsets,
		Offsets:         s.wal.SyncedOffsets(nil),
	}, nil
}

// ReplSnapshot opens the named snapshot for shipping. The name must be
// the manifest's current snapshot — anything else is either stale
// (compaction removes superseded snapshots, so the caller should
// refetch the manifest) or not a snapshot at all (the check doubles as
// path-traversal protection on the HTTP surface).
func (s *Store) ReplSnapshot(name string) (io.ReadCloser, error) {
	if s.wal == nil {
		return nil, errNotDurable
	}
	m, err := readManifest(s.wal.Dir())
	if err != nil {
		return nil, err
	}
	if name != m.Snapshot {
		return nil, fmt.Errorf("socialnet: snapshot %q is not the current %q", name, m.Snapshot)
	}
	return os.Open(filepath.Join(s.wal.Dir(), m.Snapshot))
}

// ReplSegments returns up to maxBytes of raw framed record bytes from
// the given WAL shard's chain, starting at stream index from and
// bounded by the shard's fsynced high-water mark. An empty result means
// the follower is caught up.
func (s *Store) ReplSegments(shard int, from uint64, maxBytes int) ([]byte, error) {
	if s.wal == nil {
		return nil, errNotDurable
	}
	blob, _, err := s.wal.readFrames(shard, from, maxBytes)
	return blob, err
}

// ReplOffsets snapshots the per-shard fsynced high-water marks into dst
// — what a leader advertises in the X-Repl-Offsets staleness header.
// Returns dst[:0] for in-memory stores.
func (s *Store) ReplOffsets(dst []uint64) []uint64 {
	if s.wal == nil {
		return dst[:0]
	}
	return s.wal.SyncedOffsets(dst)
}

// readFrames collects raw record frames from one shard's segment chain,
// starting at stream index from, stopping at the shard's synced
// high-water mark or once maxBytes have accumulated. It returns the
// frame bytes and the record count. Reading races benignly with the
// appender: records below synced were fully flushed before synced
// advanced, and the scan never looks past synced, so it can never meet
// a partially flushed frame.
func (w *DiskWAL) readFrames(shard int, from uint64, maxBytes int) ([]byte, int, error) {
	if shard < 0 || shard >= len(w.shards) {
		return nil, 0, fmt.Errorf("socialnet: replication shard %d outside [0,%d)", shard, len(w.shards))
	}
	if maxBytes <= 0 {
		maxBytes = DefaultReplBatchBytes
	} else if maxBytes > maxReplBatchBytes {
		maxBytes = maxReplBatchBytes
	}
	sh := w.shards[shard]
	sh.mu.Lock()
	synced := sh.synced
	sh.mu.Unlock()
	if from >= synced {
		return nil, 0, nil
	}
	byShard, err := listSegments(w.dir, len(w.shards))
	if err != nil {
		return nil, 0, err
	}
	segs := byShard[shard]
	// The serving segment is the last one starting at or below the
	// cursor; no such segment means compaction already removed it.
	k := -1
	for i := range segs {
		if segs[i].start <= from {
			k = i
		} else {
			break
		}
	}
	if k < 0 {
		return nil, 0, fmt.Errorf("%w: shard %d offset %d", ErrReplGap, shard, from)
	}
	var out []byte
	count := 0
	idx := segs[k].start
	for ; k < len(segs) && idx < synced && len(out) < maxBytes; k++ {
		if segs[k].start != idx {
			return nil, 0, fmt.Errorf("%w: shard %d chain jumps from %d to %d", ErrCorruptSegment, shard, idx, segs[k].start)
		}
		err := scanSegmentFrames(segs[k].path, func(frame []byte) bool {
			if idx >= synced || len(out) >= maxBytes {
				return false
			}
			if idx >= from {
				out = append(out, frame...)
				count++
			}
			idx++
			return true
		})
		if err != nil {
			return nil, 0, err
		}
	}
	return out, count, nil
}

// scanSegmentFrames streams the valid frames of one segment file to fn
// (called with the full framed bytes; returning false stops the scan). Like scanSegment, the
// first invalid frame ends the scan silently — the replication reader
// never advances past the synced horizon, so a torn tail is always
// beyond what it serves.
func scanSegmentFrames(path string, fn func(frame []byte) bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	header := make([]byte, segHeaderSize)
	if _, err := io.ReadFull(f, header); err != nil {
		return fmt.Errorf("%w: %s: unreadable header", ErrCorruptSegment, path)
	}
	if _, _, err := parseSegmentHeader(header); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	frame := make([]byte, 0, 256)
	for {
		frame = frame[:0]
		var head [8]byte
		if _, err := io.ReadFull(br, head[:]); err != nil {
			return nil // clean EOF or torn frame
		}
		n := binary.LittleEndian.Uint32(head[0:4])
		if n == 0 || n > maxRecordPayload {
			return nil
		}
		frame = append(frame, head[:]...)
		if cap(frame) < 8+int(n) {
			frame = append(make([]byte, 0, 8+n), frame...)
		}
		frame = frame[:8+n]
		if _, err := io.ReadFull(br, frame[8:]); err != nil {
			return nil // torn payload
		}
		if crc32.ChecksumIEEE(frame[8:]) != binary.LittleEndian.Uint32(head[4:8]) {
			return nil // corrupt record: torn
		}
		if !fn(frame) {
			return nil
		}
	}
}

// scanReplFrames splits a shipped blob into decoded records and their
// exact frame bytes. Unlike a local segment scan, an invalid frame here
// is a hard error: the leader serves only records below its synced
// horizon, so damage means transport or leader-side corruption the
// follower must not apply.
func scanReplFrames(blob []byte) ([]walRecord, [][]byte, error) {
	var recs []walRecord
	var frames [][]byte
	for off := 0; off < len(blob); {
		if len(blob)-off < 8 {
			return nil, nil, fmt.Errorf("%w: short frame header at byte %d", ErrCorruptSegment, off)
		}
		n := int(binary.LittleEndian.Uint32(blob[off : off+4]))
		if n == 0 || n > maxRecordPayload || len(blob)-off < 8+n {
			return nil, nil, fmt.Errorf("%w: bad frame length %d at byte %d", ErrCorruptSegment, n, off)
		}
		payload := blob[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(blob[off+4:off+8]) {
			return nil, nil, fmt.Errorf("%w: frame CRC mismatch at byte %d", ErrCorruptSegment, off)
		}
		rec, ok := decodeRecord(payload)
		if !ok {
			return nil, nil, fmt.Errorf("%w: undecodable record at byte %d", ErrCorruptSegment, off)
		}
		recs = append(recs, rec)
		frames = append(frames, blob[off:off+8+n])
		off += 8 + n
	}
	return recs, frames, nil
}

// ReplSource is where a follower pulls replication state from: a local
// leader store (StoreReplSource, for tests and single-process setups)
// or a leader's HTTP replication feed (api.ReplHTTPSource).
type ReplSource interface {
	// Manifest fetches the leader's current replication manifest.
	Manifest(ctx context.Context) (ReplManifestDoc, error)
	// Snapshot opens the named snapshot for streaming.
	Snapshot(ctx context.Context, name string) (io.ReadCloser, error)
	// Segments fetches raw framed records from one WAL shard starting
	// at stream index from; empty means caught up.
	Segments(ctx context.Context, shard int, from uint64, maxBytes int) ([]byte, error)
}

// StoreReplSource adapts a leader Store in the same process into a
// ReplSource.
type StoreReplSource struct{ Leader *Store }

// Manifest implements ReplSource.
func (s StoreReplSource) Manifest(context.Context) (ReplManifestDoc, error) {
	return s.Leader.ReplManifest()
}

// Snapshot implements ReplSource.
func (s StoreReplSource) Snapshot(_ context.Context, name string) (io.ReadCloser, error) {
	return s.Leader.ReplSnapshot(name)
}

// Segments implements ReplSource.
func (s StoreReplSource) Segments(_ context.Context, shard int, from uint64, maxBytes int) ([]byte, error) {
	return s.Leader.ReplSegments(shard, from, maxBytes)
}

// FollowerOptions tunes a follower's local durable store and fetch
// batching.
type FollowerOptions struct {
	// WAL configures the follower's own segment writing.
	WAL WALOptions
	// BatchBytes bounds one per-shard segment fetch. 0 means
	// DefaultReplBatchBytes.
	BatchBytes int
}

// FollowerStore is a read replica of a leader's durable store: a full
// Store (every read path, analyses, a StreamScorer) whose journal is
// fed exclusively by tailing the leader's segment chains. Writes
// belong on the leader; the follower's own API surface is read-only.
type FollowerStore struct {
	st    *Store
	src   ReplSource
	dir   string
	batch int
	// held counts records the last Poll sweep fetched but deferred
	// because a cross-shard referenced entity had not shipped yet.
	held atomic.Int64
}

// OpenFollower opens (or bootstraps) a follower of src in dir. A fresh
// dir is seeded by downloading the leader's current snapshot and
// writing a local manifest claiming exactly what the snapshot covers;
// a dir with existing state — a follower restart — just reopens it with
// OpenDurable, torn-tail repair and all, and resumes tailing from
// wherever the local chains end. The returned store does NOT feed its
// journal back into the WAL (Poll persists the shipped frames
// verbatim instead), so the follower's chains stay byte-identical to
// the leader's record streams.
func OpenFollower(ctx context.Context, dir string, src ReplSource, opts FollowerOptions) (*FollowerStore, *OpenStats, error) {
	if !HasDurableState(dir) {
		if err := bootstrapFollower(ctx, dir, src); err != nil {
			return nil, nil, fmt.Errorf("socialnet: follower bootstrap: %w", err)
		}
	}
	st, stats, err := OpenDurable(dir, opts.WAL)
	if err != nil {
		return nil, nil, err
	}
	// Detach the journal->WAL feed: replayEvent (the apply path) appends
	// to the in-memory journal, and with a backend attached those
	// appends would be re-encoded into the local WAL alongside the raw
	// shipped frames — every record written twice, and the chains no
	// longer the leader's bytes.
	st.journal.SetBackend(nil)
	batch := opts.BatchBytes
	if batch <= 0 {
		batch = DefaultReplBatchBytes
	}
	return &FollowerStore{st: st, src: src, dir: dir, batch: batch}, stats, nil
}

// bootstrapFollower seeds dir from the leader's current snapshot. The
// local manifest's offsets are the leader's snapshot-coverage offsets:
// the follower's chains start empty and the first Poll tails from
// exactly that floor.
func bootstrapFollower(ctx context.Context, dir string, src ReplSource) error {
	m, err := src.Manifest(ctx)
	if err != nil {
		return err
	}
	if m.Shards < 1 || m.WALShards < 1 || len(m.SnapshotOffsets) != m.WALShards {
		return fmt.Errorf("leader manifest inconsistent: shards %d, wal shards %d, offsets %d", m.Shards, m.WALShards, len(m.SnapshotOffsets))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rc, err := src.Snapshot(ctx, m.Snapshot)
	if err != nil {
		return err
	}
	defer rc.Close()
	tmp, err := os.CreateTemp(dir, ".tmp-snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := io.Copy(tmp, rc); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, m.Snapshot)); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	local := manifest{
		Version:   manifestVersion,
		Seq:       m.Seq,
		Shards:    m.Shards,
		WALShards: m.WALShards,
		Snapshot:  m.Snapshot,
		Offsets:   m.SnapshotOffsets,
	}
	data, err := json.MarshalIndent(&local, "", " ")
	if err != nil {
		return err
	}
	return WriteFileDurable(filepath.Join(dir, manifestFile), data)
}

// RebootstrapFollower discards a follower directory whose cursor fell
// below the leader's surviving chain (ErrReplGap) and re-seeds it from
// the leader's CURRENT snapshot, returning a fresh follower tailing
// from the new floor. The swap is atomic at the directory level: the
// new state is fully bootstrapped into dir+".rebootstrap" first, then
// renamed over dir via a dir→dir+".old" shuffle. The caller must Close
// the old FollowerStore before calling. Every crash window is safe: a
// stale leftover dir gaps again on the next Poll and retries here; a
// missing dir (crash between the two renames) makes the next
// OpenFollower bootstrap fresh.
func RebootstrapFollower(ctx context.Context, dir string, src ReplSource, opts FollowerOptions) (*FollowerStore, *OpenStats, error) {
	tmp := dir + ".rebootstrap"
	if err := os.RemoveAll(tmp); err != nil {
		return nil, nil, err
	}
	if err := bootstrapFollower(ctx, tmp, src); err != nil {
		os.RemoveAll(tmp)
		return nil, nil, fmt.Errorf("socialnet: follower re-bootstrap: %w", err)
	}
	old := dir + ".old"
	if err := os.RemoveAll(old); err != nil {
		return nil, nil, err
	}
	if err := os.Rename(dir, old); err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return nil, nil, err
	}
	if err := syncDir(filepath.Dir(dir)); err != nil {
		return nil, nil, err
	}
	os.RemoveAll(old)
	return OpenFollower(ctx, dir, src, opts)
}

// Store returns the follower's live store — the full read surface.
func (f *FollowerStore) Store() *Store { return f.st }

// Offsets snapshots the follower's per-shard applied offsets into dst —
// the replica's staleness coordinates, directly comparable with the
// leader's ReplManifest Offsets.
func (f *FollowerStore) Offsets(dst []uint64) []uint64 {
	if f.st.wal == nil {
		return dst[:0]
	}
	return f.st.wal.OffsetsInto(dst)
}

// replBatch is one shard's fetched-and-verified tail.
type replBatch struct {
	shard  int
	recs   []walRecord
	frames [][]byte
}

// Poll tails every shard once (repeating while progress is being made)
// and returns how many records it applied AND persisted. Records are
// applied to the in-memory store FIRST and persisted to the local
// chains second: a checkpoint racing Poll then always snapshots a
// superset of the offsets it records (the manifest invariant), and a
// crash between the two simply refetches the suffix — replay dedupes
// absorb any overlap. Fetched frames were CRC-verified and decoded
// before anything is applied, so a damaged batch is rejected whole.
//
// Per-shard fetches are sequential, so one sweep is not a consistent
// cut of the leader's shard horizons: a like or edge can arrive whose
// referenced user/page creation sits in another shard beyond this
// sweep's batch cap or fetch point. Such a record must NOT be
// discarded (the leader has it applied) and must NOT be persisted
// while unapplied (a restart's full-WAL replay would then apply it,
// shifting the journal's record offsets relative to every cursor saved
// before the restart). Instead the record holds its shard back: apply
// stops the shard at the first record that fails, nothing at or past
// it is persisted or acknowledged, and the next sweep refetches it —
// by then the missing creation has usually shipped. A sweep that
// fetches records but can apply none returns and lets the next Poll
// retry (the leader's group commit may simply not have synced the
// creation's shard yet); Held reports the deferred count.
func (f *FollowerStore) Poll(ctx context.Context) (int, error) {
	w := f.st.wal
	if w == nil {
		return 0, errors.New("socialnet: follower is closed")
	}
	total := 0
	for {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		var batches []replBatch
		got := 0
		for i := range w.shards {
			from := w.shardNext(i)
			blob, err := f.src.Segments(ctx, i, from, f.batch)
			if err != nil {
				return total, err
			}
			if len(blob) == 0 {
				continue
			}
			recs, frames, err := scanReplFrames(blob)
			if err != nil {
				return total, fmt.Errorf("socialnet: follower shard %d from %d: %w", i, from, err)
			}
			batches = append(batches, replBatch{shard: i, recs: recs, frames: frames})
			got += len(recs)
		}
		if got == 0 {
			f.held.Store(0)
			return total, nil
		}
		limits, applied := f.apply(batches)
		for bi, b := range batches {
			w.appendRaw(b.shard, b.frames[:limits[bi]])
		}
		if err := w.Err(); err != nil {
			return total, err
		}
		total += applied
		f.held.Store(int64(got - applied))
		if applied == 0 {
			return total, nil
		}
	}
}

// Held reports how many fetched records the most recent Poll sweep
// deferred because a referenced user or page had not shipped yet. A
// transiently positive value is normal (the reference is in flight);
// a value that never drains means the leader's stream is damaged —
// the follower refuses to diverge and its staleness offsets stop
// advancing on the held shards.
func (f *FollowerStore) Held() int { return int(f.held.Load()) }

// apply replays fetched records into the in-memory store with the same
// two-pass discipline as OpenDurable: every entity creation across ALL
// shards lands before any like or edge, because records are sharded by
// subject ID and a like may reference a user or page created in
// another shard's batch.
//
// It returns, per batch, the length of the batch's applyable prefix —
// what Poll may persist and advance past — plus the total prefix
// record count. A record that fails to apply (its referenced user or
// page has not shipped yet) cuts its shard's prefix there: applying or
// persisting past it would silently drop it from the live store while
// the WAL kept it, diverging the replica from the leader until a
// restart and shifting the follower journal's offsets when that
// restart replayed it. Records ahead of a cut may already have been
// applied in memory (creations in pass 1); the refetch re-applies them
// as dups, which replay dedupe absorbs exactly.
func (f *FollowerStore) apply(batches []replBatch) ([]int, int) {
	st := f.st
	var maxUser UserID
	var maxPage PageID
	for _, b := range batches {
		for _, r := range b.recs {
			if r.like {
				continue
			}
			switch r.world.Kind {
			case WorldUser:
				if r.world.User.ID > maxUser {
					maxUser = r.world.User.ID
				}
				st.replayUser(r.world.User)
			case WorldPage:
				if r.world.Page.ID > maxPage {
					maxPage = r.world.Page.ID
				}
				st.replayPage(r.world.Page)
			}
		}
	}
	if int64(maxUser)+1 > st.nextUser.Load() {
		st.nextUser.Store(int64(maxUser) + 1)
	}
	if int64(maxPage)+1 > st.nextPage.Load() {
		st.nextPage.Store(int64(maxPage) + 1)
	}
	limits := make([]int, len(batches))
	applied := 0
	for bi, b := range batches {
		limits[bi] = len(b.recs)
		for ri, r := range b.recs {
			out := replayApplied
			if r.like {
				out = st.replayEvent(r.ev)
			} else {
				switch r.world.Kind {
				case WorldFriend, WorldStatus, WorldFriendsVis:
					out = st.replayWorld(r.world)
				}
			}
			if out == replayDropped {
				limits[bi] = ri
				break
			}
		}
		applied += limits[bi]
	}
	return limits, applied
}

// Checkpoint persists the follower's state into its own directory —
// snapshot, manifest, compaction — exactly like a leader checkpoint.
func (f *FollowerStore) Checkpoint() error { return f.st.Checkpoint(f.dir) }

// Close flushes and closes the follower's local WAL. Poll must not be
// called afterwards.
func (f *FollowerStore) Close() error { return f.st.Close() }
