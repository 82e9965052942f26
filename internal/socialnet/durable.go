package socialnet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// A durable store directory holds three kinds of files:
//
//	manifest.json        — points at the current snapshot and records the
//	                       per-shard WAL offsets it covers
//	snapshot-<seq>.gob   — a full world snapshot (users, pages, friends,
//	                       every like), the gob form WriteSnapshot emits
//	s<shard>-<start>.seg — WAL segments (see segment.go)
//
// Recovery is snapshot + tail-replay: OpenDurable rebuilds the world
// from the manifest's snapshot, then replays only the WAL records at or
// beyond the manifest offsets — likes (deduplicated on the journal's
// global (user, page) uniqueness invariant) and world mutations (user
// and page creations, friendships, status/visibility updates), so the
// tail alone reconstructs everything since the snapshot. Checkpoint
// moves the snapshot forward and compacts the segments it covers —
// or, when the tail is small relative to the world, just fsyncs the
// tail and republishes the manifest (an incremental checkpoint) — so
// neither recovery time nor disk usage grows with history, and
// checkpoint cost tracks the delta, not the world.
const manifestFile = "manifest.json"

// manifest is the durable directory's root pointer. It is replaced
// atomically (tmp + rename), so a crash mid-checkpoint leaves the
// previous snapshot + its WAL tail fully intact.
type manifest struct {
	Version int
	Seq     int64 // checkpoint sequence, monotonically increasing
	Shards  int   // journal shard count (snapshot shape)
	// WALShards is the number of WAL log files (segment chains). It is
	// decoupled from Shards: the journal keeps many lock stripes for
	// in-memory concurrency, while the WAL keeps FEW files so a group
	// commit coalesces concurrent appends into a handful of fsyncs
	// instead of one per dirty stripe. A manifest without it predates
	// the split and is rejected.
	WALShards int
	Snapshot  string
	// Offsets are the per-WAL-file stream offsets captured immediately
	// BEFORE the snapshot was taken. Invariant: every WAL record below
	// Offsets[i] is contained in the snapshot (a record reaches the WAL
	// only after its in-memory commit, and the snapshot is a superset
	// of all in-memory commits at capture time). Records at or above
	// the offsets may or may not be in the snapshot; replay dedupes
	// likes on (user, page) and world records on entity existence. An
	// incremental checkpoint republishes the PREVIOUS offsets untouched
	// — they still describe what the (unchanged) snapshot covers.
	Offsets []uint64
}

// DefaultWALShards is the WAL file count for new durable directories.
// One log file is the classic group-commit shape: every concurrent
// append lands in the same segment chain, so a commit pass is exactly
// one flush+fsync no matter how many appenders are waiting. Buffered
// record writes are memcpys and never the bottleneck; fsyncs are.
const DefaultWALShards = 1

const manifestVersion = 1

// ErrNoDurableState reports a directory with no manifest — nothing to
// reopen. Callers typically build a fresh world and Checkpoint it.
var ErrNoDurableState = errors.New("socialnet: no durable state in directory")

// HasDurableState reports whether dir holds a reopenable world.
func HasDurableState(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestFile))
	return err == nil
}

func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNoDurableState, dir)
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("socialnet: corrupt manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("socialnet: manifest version %d, want %d", m.Version, manifestVersion)
	}
	if m.WALShards < 1 {
		return nil, errors.New("socialnet: manifest has no WAL shard count (a format older than this build reads)")
	}
	if m.Shards < 1 || len(m.Offsets) != m.WALShards {
		return nil, fmt.Errorf("socialnet: manifest shards %d/%d / offsets %d inconsistent", m.Shards, m.WALShards, len(m.Offsets))
	}
	if w := m.WALShards; w&(w-1) != 0 {
		return nil, fmt.Errorf("socialnet: manifest WAL shard count %d not a power of two", w)
	}
	return &m, nil
}

// WriteFileDurable writes data to path via a temp file with fsync,
// then renames it into place and fsyncs the directory, so a crash at
// any instant leaves either the old file or the new one — never a torn
// mix. Every state file in the durable stack (manifest, monitor
// cursors, study run state, crawl checkpoints) goes through this.
func WriteFileDurable(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
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
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// samePath reports whether two path spellings name the same directory.
// A raw string comparison would let "./data" vs "data" misclassify a
// checkpoint into the store's own WAL directory as an export — writing
// a zero-offset manifest next to live segments and skipping compaction.
func samePath(a, b string) bool {
	aa, errA := filepath.Abs(a)
	bb, errB := filepath.Abs(b)
	if errA != nil || errB != nil {
		return filepath.Clean(a) == filepath.Clean(b)
	}
	return aa == bb
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Durable reports whether the store streams its journal to disk.
func (s *Store) Durable() bool { return s.wal != nil }

// DurabilityErr returns the disk backend's sticky error: non-nil once
// any WAL write or fsync has failed, meaning acknowledged likes since
// then may not survive a crash. Write surfaces that promise durability
// (the API's like injection) check it after acknowledging into memory;
// nil for in-memory stores.
func (s *Store) DurabilityErr() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Err()
}

// Sync forces every acknowledged like to stable storage, narrowing the
// batched-fsync loss window to zero. A no-op for in-memory stores.
func (s *Store) Sync() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Sync()
}

// Close flushes and closes the disk backend. The store stays readable
// (it is an in-memory structure) but must not be written afterwards.
// A no-op for in-memory stores.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.journal.SetBackend(nil)
	s.wal = nil
	return err
}

// incrementalTailFactor picks the checkpoint mode: when the WAL tail
// since the published snapshot is more than this factor smaller than
// the world, rewriting the full snapshot buys little — the checkpoint
// fsyncs the tail and republishes the manifest instead (O(delta)).
// Otherwise a full snapshot rewrite + compaction (O(world)) resets the
// tail so recovery replay stays short.
const incrementalTailFactor = 4

// Checkpoint persists the store's current state into dir. When dir is
// the store's own WAL directory and the tail since the published
// snapshot is small (see incrementalTailFactor), the checkpoint is
// INCREMENTAL: the WAL — which journals world mutations alongside
// likes, so its tail alone replays everything since the snapshot — is
// fsynced and the manifest republished pointing at the existing
// snapshot, costing O(delta) instead of O(world). Otherwise it writes
// a full snapshot plus manifest and compacts the segments the snapshot
// covers. Either way the operation is safe (and race-free) under
// concurrent writers: the WAL offsets are captured before the
// snapshot, so a write landing mid-checkpoint is either inside the
// snapshot, inside the surviving WAL tail, or both (recovery dedupes),
// never lost. After a successful Checkpoint, OpenDurable(dir) recovers
// by loading the manifest snapshot and replaying only the tail.
//
// Checkpoint also works on a plain in-memory store: it then produces a
// durable seed directory (snapshot + zero offsets, no segments) that
// OpenDurable turns into a live durable store — the handoff path for
// "build the world fast in memory, then persist it". (With world
// mutations journaled, the seed snapshot is a fast-path, not a
// requirement: a durable store created empty and grown live recovers
// entirely from its WAL.)
func (s *Store) Checkpoint(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	shards := s.journal.NumShards()
	// Non-own checkpoints seed a fresh durable directory with no
	// segments: zero offsets sized for the default WAL file count.
	walShards := DefaultWALShards
	offsets := make([]uint64, walShards)
	own := s.wal != nil && samePath(s.wal.Dir(), dir)
	if own {
		offsets = s.wal.Offsets() // capture BEFORE the snapshot: see manifest.Offsets
		walShards = len(offsets)
	}

	var seq int64 = 1
	var old *manifest
	if m, err := readManifest(dir); err == nil {
		old = m
		seq = old.Seq + 1
		if own && old.Shards != shards {
			return fmt.Errorf("socialnet: checkpoint into %s: shard count %d != manifest %d", dir, shards, old.Shards)
		}
	} else if !errors.Is(err, ErrNoDurableState) {
		return err
	}

	if own && old != nil {
		// Incremental checkpoint: the delta since the published snapshot
		// is exactly the WAL records above old.Offsets. If that tail is
		// small relative to the world, make it durable and bump the
		// manifest seq against the SAME snapshot and SAME offsets — the
		// offsets describe snapshot coverage, which has not moved. No
		// compaction either: nothing new is covered.
		tail := int64(0)
		for i := range offsets {
			if offsets[i] < old.Offsets[i] {
				tail = -1 // manifest ahead of the WAL: let the full path run
				break
			}
			tail += int64(offsets[i] - old.Offsets[i])
		}
		s.friendsMu.RLock()
		edges := s.friends.NumEdges()
		s.friendsMu.RUnlock()
		world := int64(s.journal.Len()+s.NumUsers()+s.NumPages()) + int64(edges)
		if _, err := os.Stat(filepath.Join(dir, old.Snapshot)); err == nil &&
			tail >= 0 && tail*incrementalTailFactor < world {
			if err := s.wal.Sync(); err != nil {
				return err
			}
			m := manifest{Version: manifestVersion, Seq: seq, Shards: shards, WALShards: old.WALShards, Snapshot: old.Snapshot, Offsets: old.Offsets}
			data, err := json.MarshalIndent(&m, "", " ")
			if err != nil {
				return err
			}
			return WriteFileDurable(filepath.Join(dir, manifestFile), data)
		}
	}

	snapName := fmt.Sprintf("snapshot-%016d.gob", seq)
	snapPath := filepath.Join(dir, snapName)
	tmp, err := os.CreateTemp(dir, ".tmp-snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := s.WriteSnapshot(tmp); err != nil {
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
	if err := os.Rename(tmp.Name(), snapPath); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}

	// Flush the WAL BEFORE publishing the manifest: the captured offsets
	// count buffered (possibly unfsynced) appends, and once the manifest
	// claims them, recovery skips everything below them. Publishing
	// first would let a crash leave segment chains ending short of the
	// offsets — and new appends after reopen would land inside the
	// claimed range and be skipped by the recovery after that.
	if own {
		if err := s.wal.Sync(); err != nil {
			return err
		}
	}

	m := manifest{Version: manifestVersion, Seq: seq, Shards: shards, WALShards: walShards, Snapshot: snapName, Offsets: offsets}
	data, err := json.MarshalIndent(&m, "", " ")
	if err != nil {
		return err
	}
	if err := WriteFileDurable(filepath.Join(dir, manifestFile), data); err != nil {
		return err
	}

	// The manifest now points at the new snapshot: everything it
	// supersedes — older snapshots and fully covered segments — is
	// garbage. Removal failures are non-fatal leftovers, not data loss.
	removeStaleSnapshots(dir, snapName)
	if own {
		return s.wal.Compact(offsets)
	}
	return nil
}

func removeStaleSnapshots(dir, keep string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "snapshot-") && strings.HasSuffix(name, ".gob") && name != keep {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
}

// OpenStats reports what recovery found.
type OpenStats struct {
	// TailEvents is how many WAL events beyond the snapshot offsets were
	// replayed into the store (after deduplication).
	TailEvents int
	// DupEvents is how many tail events were already present in the
	// snapshot (the checkpoint race window) and were skipped.
	DupEvents int
	// DroppedEvents counts tail records referencing a user or page absent
	// from the rebuilt world. The write paths journal creations before
	// any record can reference them and nothing ever deletes them, so a
	// drop indicates external tampering with the directory; they are
	// counted, not silently eaten.
	DroppedEvents int
	// TailWorld is how many world-mutation records (user/page creations,
	// friendships, status and visibility updates) beyond the snapshot
	// offsets were replayed into the store (after deduplication).
	TailWorld int
	// TailByPage counts the replayed (SourceLike) tail events per page.
	// Tail replay is deterministic but proceeds journal-shard by shard,
	// so a page stream's tail can be ordered differently from the live
	// arrival order the previous process saw: a page cursor persisted
	// before a crash is only trustworthy up to the snapshot-covered
	// prefix, i.e. LikeCountOfPage(p) - TailByPage[p]. Consumers holding
	// cursors across a crash (honeypotd's live monitor) clamp to that
	// boundary and re-observe the tail — at-least-once, never a miss.
	TailByPage map[PageID]int
}

// OpenDurable reopens the world persisted in dir: it loads the manifest
// snapshot, repairs and replays the WAL tail, and returns a live store
// whose journal streams every new like back into the same WAL. The
// rebuilt store is bit-identical, for every canonical read path, to the
// store that was checkpointed plus its replayed tail — the property the
// engine's restart-determinism test pins.
func OpenDurable(dir string, opts WALOptions) (*Store, *OpenStats, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.Open(filepath.Join(dir, m.Snapshot))
	if err != nil {
		return nil, nil, fmt.Errorf("socialnet: open snapshot: %w", err)
	}
	st, err := ReadSnapshotSharded(f, m.Shards)
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	if st.journal.NumShards() != m.Shards {
		return nil, nil, fmt.Errorf("socialnet: snapshot rebuilt %d journal shards, manifest says %d", st.journal.NumShards(), m.Shards)
	}

	wal, recovered, err := openWAL(dir, m.WALShards, m.Offsets, opts)
	if err != nil {
		return nil, nil, err
	}

	stats := &OpenStats{TailByPage: make(map[PageID]int)}
	// Pass 1: entity creations. Likes and edges in the tail may
	// reference a user or page created in ANOTHER shard's tail (records
	// are sharded by subject ID, so creation order is not shard order);
	// landing every creation first makes pass 2 reference-complete.
	var maxUser UserID
	var maxPage PageID
	for _, rec := range recovered {
		for _, r := range rec.Records {
			if r.like {
				continue
			}
			switch r.world.Kind {
			case WorldUser:
				if r.world.User.ID > maxUser {
					maxUser = r.world.User.ID
				}
				if st.replayUser(r.world.User) == replayApplied {
					stats.TailWorld++
				} else {
					stats.DupEvents++
				}
			case WorldPage:
				if r.world.Page.ID > maxPage {
					maxPage = r.world.Page.ID
				}
				if st.replayPage(r.world.Page) == replayApplied {
					stats.TailWorld++
				} else {
					stats.DupEvents++
				}
			}
		}
	}
	// ID counters must resume past every recovered entity, or the next
	// AddUser/AddPage would reassign a replayed ID.
	if int64(maxUser)+1 > st.nextUser.Load() {
		st.nextUser.Store(int64(maxUser) + 1)
	}
	if int64(maxPage)+1 > st.nextPage.Load() {
		st.nextPage.Store(int64(maxPage) + 1)
	}
	// Pass 2: likes and the remaining world mutations, in per-shard
	// record order (which per entity is its true mutation order).
	for _, rec := range recovered {
		for _, r := range rec.Records {
			if r.like {
				switch st.replayEvent(r.ev) {
				case replayApplied:
					stats.TailEvents++
					if r.ev.Source == SourceLike {
						stats.TailByPage[r.ev.Page]++
					}
				case replayDup:
					stats.DupEvents++
				case replayDropped:
					stats.DroppedEvents++
				}
				continue
			}
			switch r.world.Kind {
			case WorldFriend, WorldStatus, WorldFriendsVis:
				switch st.replayWorld(r.world) {
				case replayApplied:
					stats.TailWorld++
				case replayDup:
					stats.DupEvents++
				case replayDropped:
					stats.DroppedEvents++
				}
			}
		}
	}

	// Attach the backend only now: replayed history is already on disk
	// and must not be re-appended.
	st.journal.SetBackend(wal)
	st.wal = wal
	return st, stats, nil
}

// OpenOrCreate reopens the durable world in dir or, when none exists,
// calls build, checkpoints the fresh world into dir, and reopens THAT —
// callers always end up serving the durably reopened copy, so the
// canonical streams (and any cursors measured against them) are
// identical on the first run and on every resume. This is the one
// open-or-build path every durable command shares; the invariant that
// serving state always equals recoverable state lives here, not in
// per-command copies.
func OpenOrCreate(dir string, opts WALOptions, build func() (*Store, error)) (*Store, *OpenStats, error) {
	if !HasDurableState(dir) {
		built, err := build()
		if err != nil {
			return nil, nil, err
		}
		if err := built.Checkpoint(dir); err != nil {
			return nil, nil, fmt.Errorf("socialnet: initial checkpoint: %w", err)
		}
	}
	return OpenDurable(dir, opts)
}

// replayUser applies a recovered user-creation record. A user the
// snapshot already contains (the checkpoint race window: the record is
// above the captured offsets AND inside the snapshot) is a dup.
func (s *Store) replayUser(u User) replayOutcome {
	sh := s.userShard(u.ID)
	sh.mu.Lock()
	if _, ok := sh.users[u.ID]; ok {
		sh.mu.Unlock()
		return replayDup
	}
	cp := u
	sh.users[u.ID] = &cp
	sh.mu.Unlock()

	s.friendsMu.Lock()
	s.friends.AddNode(int64(u.ID))
	s.friendsMu.Unlock()

	if u.Searchable {
		s.dirMu.Lock()
		s.directory = append(s.directory, u.ID)
		s.dirMu.Unlock()
	}
	return replayApplied
}

// replayPage applies a recovered page-creation record; dups are the
// same checkpoint race window as replayUser.
func (s *Store) replayPage(p Page) replayOutcome {
	sh := s.pageShard(p.ID)
	sh.mu.Lock()
	if _, ok := sh.pages[p.ID]; ok {
		sh.mu.Unlock()
		return replayDup
	}
	cp := p
	sh.pages[p.ID] = &cp
	sh.mu.Unlock()
	return replayApplied
}

// replayWorld applies a recovered friendship/status/visibility record.
// Edges the snapshot already holds are dups; status and visibility
// updates are idempotent sets. A subject absent from the rebuilt world
// is dropped — the store journals creations before any record can
// reference them, so like orphaned likes it indicates tampering.
func (s *Store) replayWorld(rec WorldRecord) replayOutcome {
	switch rec.Kind {
	case WorldFriend:
		if !s.userExists(rec.A) || !s.userExists(rec.B) {
			return replayDropped
		}
		s.friendsMu.Lock()
		defer s.friendsMu.Unlock()
		if s.friends.HasEdge(int64(rec.A), int64(rec.B)) {
			return replayDup
		}
		if err := s.friends.AddEdge(int64(rec.A), int64(rec.B)); err != nil {
			return replayDropped
		}
		return replayApplied
	case WorldStatus:
		sh := s.userShard(rec.A)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		usr, ok := sh.users[rec.A]
		if !ok {
			return replayDropped
		}
		usr.Status = rec.Status
		return replayApplied
	case WorldFriendsVis:
		sh := s.userShard(rec.A)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		usr, ok := sh.users[rec.A]
		if !ok {
			return replayDropped
		}
		usr.FriendsPublic = rec.Visible
		return replayApplied
	}
	return replayDropped
}

// replayOutcome classifies one tail event's recovery.
type replayOutcome uint8

const (
	replayApplied replayOutcome = iota
	replayDup
	replayDropped
)

// replayEvent applies one recovered WAL event to the store's indexes
// and in-memory journal, bypassing the business checks AddLike runs
// (termination): the event passed them when it was first accepted, and
// replay must reproduce exactly what was acknowledged. Events the
// snapshot already contains — the checkpoint race window — are detected
// per event, exactly, via the journal's global (user, page) uniqueness:
// an indexed like is in likeSet, a history like in the user's own
// stream. Both checks cost the one user the event touches, so reopening
// a huge world with a tiny tail stays O(snapshot load + tail), not
// O(snapshot × tail) or O(world) extra memory.
func (s *Store) replayEvent(ev LikeEvent) replayOutcome {
	k := likeKey{ev.User, ev.Page}
	ush := s.userShard(ev.User)
	ush.mu.Lock()
	if _, ok := ush.users[ev.User]; !ok {
		ush.mu.Unlock()
		return replayDropped
	}
	if ev.Source == SourceLike {
		if _, dup := ush.likeSet[k]; dup {
			ush.mu.Unlock()
			return replayDup
		}
		psh := s.pageShard(ev.Page)
		psh.mu.RLock()
		_, pageOK := psh.pages[ev.Page]
		psh.mu.RUnlock()
		if !pageOK {
			ush.mu.Unlock()
			return replayDropped
		}
	} else {
		for _, lk := range ush.likesByUser[ev.User] {
			if lk.Page == ev.Page {
				ush.mu.Unlock()
				return replayDup
			}
		}
	}
	lk := Like{User: ev.User, Page: ev.Page, At: ev.At}
	ush.likesByUser[ev.User] = append(ush.likesByUser[ev.User], lk)
	delete(ush.userSorted, ev.User)
	if ev.Source == SourceLike {
		ush.likeSet[k] = struct{}{}
	}
	ush.mu.Unlock()

	s.journal.Append(ev)

	if ev.Source == SourceLike {
		psh := s.pageShard(ev.Page)
		psh.mu.Lock()
		psh.likesByPage[ev.Page] = append(psh.likesByPage[ev.Page], lk)
		delete(psh.pageSorted, ev.Page)
		psh.mu.Unlock()
	}
	return replayApplied
}
