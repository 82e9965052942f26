package socialnet

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// WALOptions tunes the disk journal backend.
type WALOptions struct {
	// SyncEvery fsyncs after this many appended records have accumulated
	// (across all shards): the appending shard synchronously, the rest
	// via the background syncer. 0 means DefaultSyncEvery.
	//
	// 1 selects GROUP COMMIT: every append blocks until its records are
	// fsynced, but a dedicated committer coalesces all appends that
	// arrive while a flush is in flight into the next single fsync pass
	// and wakes their callers together. Nothing acknowledged is ever
	// lost to a crash, and under concurrent writers the fsync cost is
	// shared across the batch instead of paid per append. An fsync
	// FAILURE is sticky in Err, and write surfaces consult
	// Store.DurabilityErr before acknowledging.
	SyncEvery int
	// SyncInterval is the background fsync period bounding how long a
	// quiet tail can stay volatile. 0 means DefaultSyncInterval; < 0
	// disables the background syncer (tests, benchmarks). Group commit
	// (SyncEvery: 1) runs its committer regardless of this setting.
	SyncInterval time.Duration
	// SegmentMaxBytes rotates a shard to a fresh segment file once the
	// active one reaches this size. 0 means DefaultSegmentMaxBytes.
	SegmentMaxBytes int64
}

// WAL option defaults.
const (
	DefaultSyncEvery       = 256
	DefaultSyncInterval    = 100 * time.Millisecond
	DefaultSegmentMaxBytes = int64(4 << 20)
)

func (o WALOptions) withDefaults() WALOptions {
	if o.SyncEvery <= 0 {
		o.SyncEvery = DefaultSyncEvery
	}
	if o.SyncInterval == 0 {
		o.SyncInterval = DefaultSyncInterval
	}
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = DefaultSegmentMaxBytes
	}
	return o
}

// walShard is one shard's active segment writer. Appends go through a
// buffered writer; flush+fsync happens on the batched sync policy, not
// per append, so the write path costs a memcpy until a sync boundary.
type walShard struct {
	mu       sync.Mutex
	cond     *sync.Cond // commit progress: syncedThrough advanced, or sticky error/stop
	fsyncMu  sync.Mutex // pins sh.f across an fsync running outside mu; lock order: mu, then fsyncMu
	idx      int
	f        *os.File
	bw       *bufio.Writer
	next     uint64 // stream index of the next record to append
	synced   uint64 // stream index up to which records are fsynced
	segStart uint64 // first index of the active segment
	segSize  int64  // bytes written to the active segment
	dirty    bool   // bytes flushed or buffered since the last fsync
	scratch  []byte // record-encoding buffer, reused under mu

	// dirtyHint lets a sync pass skip provably-clean shards without
	// taking their locks. Set (under mu) when records are buffered,
	// cleared (under mu) when the shard syncs; reading it races benignly
	// — a miss is covered by the committer-token ordering in append.
	dirtyHint atomic.Bool
}

// DiskWAL is the journal's disk backend: per-shard append-only segment
// files with batched fsync and size-based rotation. It implements
// Backend; Journal streams every appended like through it, the Store
// streams world mutations, and the in-memory shards stay the read
// path. With SyncEvery > 1, appends are acknowledged before they are
// synced — the durability contract is "at most SyncEvery records (or
// SyncInterval of wall time) may be lost on a crash"; Sync narrows
// that window to zero on demand (shutdown, checkpoints). With
// SyncEvery == 1 (group commit) appends block until durable.
//
// After the first write or sync failure the WAL refuses further
// appends: writing past a failed record would desync the on-disk
// chain from the stream indices Offsets reports, turning a clean
// "tail lost" into silent divergence.
type DiskWAL struct {
	dir    string
	opts   WALOptions
	group  bool // SyncEvery == 1: commit via the group committer
	shards []*walShard

	unsynced atomic.Int64 // exact count of appended-but-unsynced records

	errMu   sync.Mutex
	err     error       // sticky: first write/sync failure, surfaced by Err/Sync/Close
	errFlag atomic.Bool // lock-free mirror of err != nil for the append fast path

	syncMu sync.Mutex // serializes whole-WAL sync passes

	stopOnce   sync.Once
	stopped    atomic.Bool
	stopc      chan struct{}
	wake       chan struct{} // nudges the background syncer (buffered, size 1)
	done       chan struct{}
	commitc    chan struct{} // nudges the group committer (buffered, size 1)
	commitDone chan struct{}

	// testSyncedShard, when set by tests, runs after each successful
	// shard fsync with no locks held — a deterministic injection point
	// for append-during-sync interleavings.
	testSyncedShard func(shard int)
}

// walRecovery is one shard's replayed disk state: the records found in
// its segments at or after the requested base offset, and the stream
// index of the first of them.
type walRecovery struct {
	Start   uint64
	Records []walRecord
}

// openWAL opens (or initializes) the segment files under dir for
// nShards shards and returns the WAL positioned for appending plus the
// recovered per-shard records from base[i] onward. Only the last
// segment of a shard may carry a torn tail; it is repaired by
// truncating to the last valid record. An interior segment that fails
// validation is a hard error — rotation never leaves a torn interior
// segment behind, so one means external damage the WAL must not
// silently paper over.
func openWAL(dir string, nShards int, base []uint64, opts WALOptions) (*DiskWAL, []walRecovery, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	byShard, err := listSegments(dir, nShards)
	if err != nil {
		return nil, nil, err
	}
	w := &DiskWAL{
		dir:        dir,
		opts:       opts,
		group:      opts.SyncEvery == 1,
		shards:     make([]*walShard, nShards),
		stopc:      make(chan struct{}),
		wake:       make(chan struct{}, 1),
		done:       make(chan struct{}),
		commitc:    make(chan struct{}, 1),
		commitDone: make(chan struct{}),
	}
	recovered := make([]walRecovery, nShards)
	for i := 0; i < nShards; i++ {
		sh := &walShard{idx: i, next: base[i]}
		sh.cond = sync.NewCond(&sh.mu)
		recovered[i] = walRecovery{Start: base[i]}
		// A crash between rotation and the first flush leaves the newest
		// segment with a missing or torn HEADER (creation reserves the
		// name; the header sits in the write buffer). Nothing in such a
		// file is readable, so it is the degenerate torn tail: drop it
		// and resume on the previous segment, which rotation fsynced.
		segs := byShard[i]
		for len(segs) > 0 {
			lastSeg := segs[len(segs)-1]
			if ok, err := segmentHeaderReadable(lastSeg.path); err != nil {
				return nil, nil, err
			} else if ok {
				break
			}
			if err := os.Remove(lastSeg.path); err != nil {
				return nil, nil, err
			}
			segs = segs[:len(segs)-1]
		}
		for k, seg := range segs {
			f, err := os.OpenFile(seg.path, os.O_RDWR, 0o644)
			if err != nil {
				return nil, nil, err
			}
			records, validSize, shard, start, err := scanSegment(f)
			if err != nil {
				f.Close()
				return nil, nil, err
			}
			if shard != i || start != seg.start {
				f.Close()
				return nil, nil, fmt.Errorf("%w: %s header says shard %d start %d", ErrCorruptSegment, seg.path, shard, start)
			}
			info, err := f.Stat()
			if err != nil {
				f.Close()
				return nil, nil, err
			}
			last := k == len(segs)-1
			if validSize < info.Size() {
				if !last {
					f.Close()
					return nil, nil, fmt.Errorf("%w: %s torn at %d bytes but is not the shard's last segment", ErrCorruptSegment, seg.path, validSize)
				}
				if err := f.Truncate(validSize); err != nil {
					f.Close()
					return nil, nil, fmt.Errorf("socialnet: repair %s: %w", seg.path, err)
				}
				if err := f.Sync(); err != nil {
					f.Close()
					return nil, nil, err
				}
			}
			// Contiguity: a later segment must resume exactly where the
			// previous one ended; the first must not start beyond the
			// snapshot offset (compaction can leave it at or below it).
			if k > 0 {
				if start != sh.next {
					f.Close()
					return nil, nil, fmt.Errorf("%w: %s starts at %d, expected %d", ErrCorruptSegment, seg.path, start, sh.next)
				}
			} else if start > base[i] {
				f.Close()
				return nil, nil, fmt.Errorf("%w: %s starts at %d beyond snapshot offset %d", ErrCorruptSegment, seg.path, start, base[i])
			}
			end := start + uint64(len(records))
			// Keep only records at/after the base offset; earlier ones are
			// guaranteed covered by the snapshot the base came from.
			if end > base[i] {
				skip := 0
				if start < base[i] {
					skip = int(base[i] - start)
				}
				if len(recovered[i].Records) == 0 {
					recovered[i].Start = start + uint64(skip)
				}
				recovered[i].Records = append(recovered[i].Records, records[skip:]...)
			}
			sh.next = end
			if last {
				// Position the write offset at the valid end: the scan (and
				// a torn-tail truncation) can leave it elsewhere, and a
				// write at the wrong offset would corrupt the chain.
				if _, err := f.Seek(validSize, io.SeekStart); err != nil {
					f.Close()
					return nil, nil, err
				}
				sh.f = f
				sh.bw = bufio.NewWriterSize(f, 1<<16)
				sh.segStart = start
				sh.segSize = validSize
			} else {
				f.Close()
			}
		}
		// A chain ending below the manifest offset means a checkpoint's
		// snapshot covered records the segments never got (all of them:
		// end < base implies every on-disk record is below the offset).
		// Drop the stale chain and resume AT the offset — appending below
		// it would put acknowledged records where the next recovery skips.
		if sh.next < base[i] {
			if sh.f != nil {
				if err := sh.f.Close(); err != nil {
					return nil, nil, err
				}
				sh.f, sh.bw = nil, nil
			}
			for _, seg := range segs {
				if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
					return nil, nil, err
				}
			}
			sh.next = base[i]
			recovered[i] = walRecovery{Start: base[i]}
		}
		// Everything recovered is on disk (torn tails were truncated and
		// fsynced), so the shard starts fully synced.
		sh.synced = sh.next
		w.shards[i] = sh
	}
	if opts.SyncInterval > 0 {
		go w.syncLoop()
	} else {
		close(w.done)
	}
	if w.group {
		go w.commitLoop()
	} else {
		close(w.commitDone)
	}
	return w, recovered, nil
}

// syncLoop is the background fsync ticker.
func (w *DiskWAL) syncLoop() {
	defer close(w.done)
	t := time.NewTicker(w.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stopc:
			return
		case <-w.wake:
			_ = w.Sync()
		case <-t.C:
			if w.unsynced.Load() > 0 {
				_ = w.Sync()
			}
		}
	}
}

// commitLoop is the group committer: each token coalesces every append
// buffered since the previous pass into one parallel flush+fsync, and
// syncShard wakes the waiting appenders as their shard commits.
func (w *DiskWAL) commitLoop() {
	defer close(w.commitDone)
	for {
		select {
		case <-w.stopc:
			return
		case <-w.commitc:
			// Commit window: yield so every runnable appender gets to
			// buffer its records (and park on the shard cond) before the
			// flush — then the single fsync below acknowledges them all.
			// Without the yield a lone CPU runs the committer back-to-back
			// with each append and every pass commits one record, which is
			// serial-fsync throughput with extra steps. A few yields let
			// appenders woken by the previous pass cycle back around; the
			// window stays microseconds against a ~100µs fsync. On
			// multicore the yields are nearly free: the committer is
			// rescheduled as soon as a P is idle.
			for i := 0; i < 4; i++ {
				runtime.Gosched()
			}
			_ = w.Sync()
		}
	}
}

// requestCommit nudges the group committer. The token is enqueued (or
// already pending) strictly after the caller's records were buffered,
// so the pass that consumes it — which starts only after consuming —
// is guaranteed to see them.
func (w *DiskWAL) requestCommit() {
	select {
	case w.commitc <- struct{}{}:
	default:
	}
}

// awaitDurable blocks until the shard's synced index reaches target, a
// sticky error surfaces, or the WAL is stopped. Wakeups cannot be
// lost: every waker (syncShard, rotation, wakeWaiters) broadcasts
// while holding sh.mu, which Wait only releases atomically.
func (w *DiskWAL) awaitDurable(sh *walShard, target uint64) {
	sh.mu.Lock()
	for sh.synced < target && !w.errFlag.Load() && !w.stopped.Load() {
		sh.cond.Wait()
	}
	sh.mu.Unlock()
}

// wakeWaiters releases every group-commit waiter (used at Close, after
// stopped is set). Locks are taken one shard at a time, never nested.
func (w *DiskWAL) wakeWaiters() {
	for _, sh := range w.shards {
		sh.mu.Lock()
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
}

func (w *DiskWAL) setErr(err error) {
	w.errMu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.errMu.Unlock()
	w.errFlag.Store(true)
}

// Err returns the sticky first write or sync failure, if any.
func (w *DiskWAL) Err() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.err
}

// Dir returns the WAL's directory.
func (w *DiskWAL) Dir() string { return w.dir }

// Append writes the like events to the shard's active segment,
// rotating first if it is full. It implements Backend and is called by
// the journal under the corresponding journal-shard lock, so per-shard
// append order on disk always matches the in-memory stream. Errors are
// sticky (surfaced by Sync/Err/Close) and refuse all further appends:
// the in-memory journal stays authoritative for reads even if the disk
// falls over. Under group commit (SyncEvery: 1) Append returns only
// once the events are fsynced.
func (w *DiskWAL) Append(shard int, evs ...LikeEvent) {
	if len(evs) == 0 {
		return
	}
	w.appendRecords(shard, len(evs), func(i int, buf []byte) []byte {
		return encodeEvent(buf, evs[i])
	})
}

// AppendWorld journals world mutations (user/page creations,
// friendships, status and visibility updates) to the shard's segment
// chain, with the same ordering, durability, and sticky-error contract
// as Append. The store calls it under the mutated entity's lock, so
// per-entity mutation order on disk matches the in-memory history.
func (w *DiskWAL) AppendWorld(shard int, recs ...WorldRecord) {
	if len(recs) == 0 {
		return
	}
	w.appendRecords(shard, len(recs), func(i int, buf []byte) []byte {
		return encodeWorld(buf, recs[i])
	})
}

// appendRecords buffers n encoded records into the shard's log file
// and applies the sync policy: group commit blocks for durability,
// threshold mode fsyncs inline once SyncEvery accumulates. The WAL may
// keep fewer log files than the journal has lock stripes (the manifest
// decouples the counts); callers pass the journal shard index and it
// folds onto the file set here. Fewer files means a commit pass is
// fewer fsyncs — with the default single file, exactly one — which is
// what lets group commit amortize durability across every concurrent
// appender rather than across only the appenders of one stripe.
func (w *DiskWAL) appendRecords(shard int, n int, enc func(i int, buf []byte) []byte) {
	sh := w.shards[shard&(len(w.shards)-1)]
	sh.mu.Lock()
	// Sticky-error refusal: after a failed write the on-disk chain may
	// have diverged from the stream indices Offsets reports; appending
	// more records would bury the divergence deeper. Recovery trusts
	// exactly the pre-error prefix.
	if w.errFlag.Load() {
		sh.mu.Unlock()
		return
	}
	written := 0
	for i := 0; i < n; i++ {
		if sh.f == nil || sh.segSize >= w.opts.SegmentMaxBytes {
			if err := w.rotateLocked(sh); err != nil {
				w.failAppendLocked(sh, written, err)
				return
			}
		}
		sh.scratch = enc(i, sh.scratch[:0])
		if _, err := sh.bw.Write(sh.scratch); err != nil {
			w.failAppendLocked(sh, written, err)
			return
		}
		sh.next++
		sh.segSize += int64(len(sh.scratch))
		sh.dirty = true
		written++
	}
	end := sh.next
	// Counter discipline: unsynced is adjusted only under a shard's mu
	// (here, and subtractively in syncShard/rotateLocked), so it always
	// equals the sum over shards of (next - synced) — the exact number
	// of acknowledged-but-volatile records.
	w.unsynced.Add(int64(written))
	sh.dirtyHint.Store(true)
	sh.mu.Unlock()

	if w.group {
		w.requestCommit()
		w.awaitDurable(sh, end)
		return
	}
	if w.unsynced.Load() >= int64(w.opts.SyncEvery) {
		// The caller holds this shard's journal lock, so keep the inline
		// work bounded to this shard's file: the events just acknowledged
		// live here, and fsyncing it makes them durable before Append
		// returns. Other shards' quiet tails are handed to the background
		// syncer instead of being flushed under this caller's lock;
		// without a background syncer (tests, benchmarks) fall back to a
		// full inline pass.
		if w.opts.SyncInterval > 0 {
			w.syncShard(sh)
			select {
			case w.wake <- struct{}{}:
			default:
			}
		} else {
			_ = w.Sync()
		}
	}
}

// failAppendLocked records a mid-batch append failure: the partially
// written records still count as unsynced (they advanced sh.next), the
// error becomes sticky, and this shard's waiters are woken to observe
// it. Called with sh.mu held; unlocks it.
func (w *DiskWAL) failAppendLocked(sh *walShard, written int, err error) {
	w.unsynced.Add(int64(written))
	sh.dirtyHint.Store(true)
	w.setErr(err)
	sh.cond.Broadcast()
	sh.mu.Unlock()
}

// syncShard flushes and fsyncs one shard's active segment, advances
// its synced index, subtracts exactly the newly durable records from
// the unsynced counter, and wakes the shard's commit waiters.
//
// The fsync itself runs with sh.mu RELEASED. This is what makes group
// commit actually amortize: appenders keep buffering records (and
// queueing the next commit token) while the current flush is on the
// platter, so the following pass acknowledges all of them with one
// more fsync. Holding mu across the fsync would serialize appenders
// behind every flush — one fsync per append, the exact cost group
// commit exists to avoid. Only the records flushed BEFORE the fsync
// (up to target) are marked durable; later arrivals wait for their own
// pass. fsyncMu pins the file open for the duration: rotation closes
// segments, and it takes the same lock (always under mu — lock order
// is mu, then fsyncMu) before touching the descriptor.
func (w *DiskWAL) syncShard(sh *walShard) {
	sh.mu.Lock()
	if sh.f == nil || !sh.dirty {
		// Nothing buffered: whatever records exist are already durable
		// (rotation and open both fsync before clearing dirty).
		sh.dirtyHint.Store(false)
		sh.cond.Broadcast()
		sh.mu.Unlock()
		return
	}
	if err := sh.bw.Flush(); err != nil {
		w.setErr(err)
		sh.cond.Broadcast()
		sh.mu.Unlock()
		return
	}
	f := sh.f
	target := sh.next
	sh.dirty = false
	sh.dirtyHint.Store(false)
	sh.fsyncMu.Lock()
	sh.mu.Unlock()

	err := f.Sync()
	sh.fsyncMu.Unlock()

	sh.mu.Lock()
	advanced := false
	if err != nil {
		w.setErr(err)
	} else if target > sh.synced {
		// A concurrent rotation may have closed the segment (its own
		// fsync covered everything, advancing synced past target) — then
		// there is nothing left to account here.
		w.unsynced.Add(-int64(target - sh.synced))
		sh.synced = target
		advanced = true
	}
	sh.cond.Broadcast()
	sh.mu.Unlock()
	if advanced && w.testSyncedShard != nil {
		w.testSyncedShard(sh.idx)
	}
}

// rotateLocked closes the active segment (flushed and fsynced — an
// interior segment is always fully valid on disk) and opens a fresh one
// starting at the shard's next stream index. Called with sh.mu held.
func (w *DiskWAL) rotateLocked(sh *walShard) error {
	if sh.f != nil {
		if err := sh.bw.Flush(); err != nil {
			return err
		}
		// fsyncMu keeps the descriptor alive for any syncShard pass whose
		// fsync is in flight with mu released; acquire it (lock order mu,
		// then fsyncMu) before the close invalidates the file.
		sh.fsyncMu.Lock()
		err := sh.f.Sync()
		if err == nil {
			err = sh.f.Close()
		}
		sh.fsyncMu.Unlock()
		if err != nil {
			return err
		}
		sh.f, sh.bw, sh.dirty = nil, nil, false
		// The close made every record in the old segment durable.
		if newly := int64(sh.next - sh.synced); newly != 0 {
			sh.synced = sh.next
			w.unsynced.Add(-newly)
			sh.cond.Broadcast()
		}
	}
	path := fmt.Sprintf("%s/%s", w.dir, segmentFileName(sh.idx, sh.next))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if _, err := bw.Write(segmentHeader(sh.idx, sh.next)); err != nil {
		f.Close()
		return err
	}
	sh.f, sh.bw = f, bw
	sh.segStart = sh.next
	sh.segSize = segHeaderSize
	sh.dirty = true
	return nil
}

// Sync flushes and fsyncs every dirty shard — in parallel, so a pass
// over many dirty shards costs roughly one fsync of wall time — and
// wakes each shard's commit waiters as it lands. The unsynced counter
// is decremented per shard by exactly the records that pass made
// durable, never zeroed: appends racing with the pass keep their
// count, preserving the SyncEvery/SyncInterval contract for them. It
// returns the sticky error if any write has ever failed.
func (w *DiskWAL) Sync() error {
	w.syncMu.Lock()
	var wg sync.WaitGroup
	for _, sh := range w.shards {
		if !sh.dirtyHint.Load() {
			continue
		}
		wg.Add(1)
		go func(sh *walShard) {
			defer wg.Done()
			w.syncShard(sh)
		}(sh)
	}
	wg.Wait()
	w.syncMu.Unlock()
	return w.Err()
}

// Offsets snapshots each shard's next stream index — the per-shard
// high-water marks a checkpoint manifest records. Capturing offsets
// BEFORE writing the snapshot preserves the recovery invariant: every
// record below an offset committed to the in-memory store (and thus to
// any later snapshot) before it entered the WAL.
func (w *DiskWAL) Offsets() []uint64 { return w.OffsetsInto(nil) }

// OffsetsInto is Offsets writing into dst (grown as needed): pollers
// that snapshot offsets every tick (the replication tail, the staleness
// header) reuse one scratch slice instead of allocating per call.
func (w *DiskWAL) OffsetsInto(dst []uint64) []uint64 {
	dst = sizeOffsets(dst, len(w.shards))
	for i, sh := range w.shards {
		sh.mu.Lock()
		dst[i] = sh.next
		sh.mu.Unlock()
	}
	return dst
}

// SyncedOffsets snapshots each shard's fsynced high-water mark into dst
// (grown as needed). This is the replication feed's publish horizon:
// records below it are both durable on the leader and fully flushed to
// the segment files, so a concurrent reader is guaranteed to find them.
func (w *DiskWAL) SyncedOffsets(dst []uint64) []uint64 {
	dst = sizeOffsets(dst, len(w.shards))
	for i, sh := range w.shards {
		sh.mu.Lock()
		dst[i] = sh.synced
		sh.mu.Unlock()
	}
	return dst
}

// sizeOffsets returns dst resized to n entries, reusing its backing
// array when capacity allows.
func sizeOffsets(dst []uint64, n int) []uint64 {
	if cap(dst) < n {
		return make([]uint64, n)
	}
	return dst[:n]
}

// shardNext returns one shard's next stream index — the follower tail's
// per-shard replication cursor, read without allocating.
func (w *DiskWAL) shardNext(shard int) uint64 {
	sh := w.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.next
}

// appendRaw writes pre-framed record bytes (shipped segment frames,
// already CRC-verified by the caller) to the given WAL shard's chain,
// with the same rotation, sync policy, group-commit and sticky-error
// behavior as Append. shard is the WAL file index itself, not a journal
// shard to fold. This is the follower's persist path: frames land
// byte-identical to the leader's, so the follower's chain IS the
// leader's record stream.
func (w *DiskWAL) appendRaw(shard int, frames [][]byte) {
	if len(frames) == 0 {
		return
	}
	w.appendRecords(shard, len(frames), func(i int, buf []byte) []byte {
		return append(buf, frames[i]...)
	})
}

// Compact removes segments made redundant by a snapshot covering the
// given per-shard offsets: a non-active segment whose every record sits
// below its shard's offset is deleted. Recovery afterwards is snapshot
// + tail-replay of the surviving segments, never full history.
func (w *DiskWAL) Compact(offsets []uint64) error {
	byShard, err := listSegments(w.dir, len(w.shards))
	if err != nil {
		return err
	}
	for i, segs := range byShard {
		sh := w.shards[i]
		sh.mu.Lock()
		activeStart, active := sh.segStart, sh.f != nil
		sh.mu.Unlock()
		for k, seg := range segs {
			if active && seg.start == activeStart {
				continue
			}
			// A segment's span ends where the next one starts (or at the
			// shard's active segment). The chain is authoritative — record
			// sizes vary, so the file size says nothing about the count.
			var end uint64
			if k+1 < len(segs) {
				end = segs[k+1].start
			} else {
				continue // newest segment, keep
			}
			if end <= offsets[i] {
				if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
					return err
				}
			}
		}
	}
	return nil
}

// Close stops the background syncer and group committer, flushes and
// fsyncs everything, wakes any remaining commit waiters, and closes
// the segment files. The WAL must not be appended to afterwards.
func (w *DiskWAL) Close() error {
	w.stopOnce.Do(func() {
		w.stopped.Store(true)
		close(w.stopc)
	})
	<-w.done
	<-w.commitDone
	err := w.Sync()
	w.wakeWaiters()
	for _, sh := range w.shards {
		sh.mu.Lock()
		if sh.f != nil {
			if cerr := sh.f.Close(); cerr != nil && err == nil {
				err = cerr
			}
			sh.f, sh.bw = nil, nil
		}
		sh.mu.Unlock()
	}
	return err
}
