package socialnet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// openTestFollower opens a follower of leader in dir with backgrounds
// disabled; the tests drive Sync and Poll explicitly.
func openTestFollower(t *testing.T, dir string, leader *Store) *FollowerStore {
	t.Helper()
	fw, _, err := OpenFollower(context.Background(), dir, StoreReplSource{Leader: leader}, FollowerOptions{WAL: noSync})
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// assertReplEqual pins a follower against its leader: identical
// canonical event streams, world counts, and — after both sides sync —
// byte-identical record streams served from their segment chains.
func assertReplEqual(t *testing.T, leader, follower *Store) {
	t.Helper()
	a := leader.Journal().EventsCanonical(1)
	b := follower.Journal().EventsCanonical(1)
	if len(a) != len(b) {
		t.Fatalf("canonical lengths differ: leader %d vs follower %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("canonical event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if leader.NumUsers() != follower.NumUsers() || leader.NumPages() != follower.NumPages() {
		t.Fatalf("world size differs: %d/%d users, %d/%d pages",
			leader.NumUsers(), follower.NumUsers(), leader.NumPages(), follower.NumPages())
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := follower.Sync(); err != nil {
		t.Fatal(err)
	}
	lm, err := leader.ReplManifest()
	if err != nil {
		t.Fatal(err)
	}
	for sh := 0; sh < lm.WALShards; sh++ {
		// Both chains may begin above zero after compaction; compare from
		// the higher of the two floors (records below either floor are
		// snapshot-covered on that side).
		lb, err := leader.ReplSegments(sh, 0, maxReplBatchBytes)
		if err != nil && !errors.Is(err, ErrReplGap) {
			t.Fatal(err)
		}
		fb, err := follower.ReplSegments(sh, 0, maxReplBatchBytes)
		if err != nil && !errors.Is(err, ErrReplGap) {
			t.Fatal(err)
		}
		if lb != nil && fb != nil && !bytes.Equal(lb, fb) {
			t.Fatalf("shard %d record streams differ: leader %d bytes vs follower %d bytes", sh, len(lb), len(fb))
		}
	}
}

func TestFollowerBootstrapAndTail(t *testing.T) {
	leader, users, pages := durableWorld(t, t.TempDir(), 12, 3, noSync)
	defer leader.Close()
	for i, u := range users {
		if err := leader.AddLike(u, pages[i%len(pages)], at(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}

	fw := openTestFollower(t, t.TempDir(), leader)
	defer fw.Close()
	n, err := fw.Poll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != len(users) {
		t.Fatalf("first poll applied %d records, want %d", n, len(users))
	}
	assertReplEqual(t, leader, fw.Store())

	// Live tail: likes, a user creation, a friendship, a status change,
	// and a visibility flip all ship as journal records.
	nu := leader.AddUser(User{Country: "IT", Searchable: true})
	if err := leader.AddLike(nu, pages[0], at(100)); err != nil {
		t.Fatal(err)
	}
	if err := leader.Friend(users[0], users[1]); err != nil {
		t.Fatal(err)
	}
	if err := leader.Terminate(users[2]); err != nil {
		t.Fatal(err)
	}
	if err := leader.SetFriendsPublic(users[3], false); err != nil {
		t.Fatal(err)
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertReplEqual(t, leader, fw.Store())
	f := fw.Store()
	if !f.AreFriends(users[0], users[1]) {
		t.Fatal("friend edge did not replicate")
	}
	if u, err := f.User(users[2]); err != nil || u.Status != StatusTerminated {
		t.Fatalf("termination did not replicate: %+v, %v", u, err)
	}
	if f.FriendsVisible(users[3]) {
		t.Fatal("visibility flip did not replicate")
	}
	if u, err := f.User(nu); err != nil || u.Country != "IT" {
		t.Fatalf("user creation did not replicate: %+v, %v", u, err)
	}

	// Caught up: another poll is a no-op.
	if n, err := fw.Poll(context.Background()); err != nil || n != 0 {
		t.Fatalf("caught-up poll applied %d, err %v", n, err)
	}
}

func TestFollowerSeesOnlySyncedRecords(t *testing.T) {
	leader, users, pages := durableWorld(t, t.TempDir(), 4, 1, noSync)
	defer leader.Close()
	fw := openTestFollower(t, t.TempDir(), leader)
	defer fw.Close()

	if err := leader.AddLike(users[0], pages[0], at(1)); err != nil {
		t.Fatal(err)
	}
	// Unsynced records are beyond the feed's horizon: a crash on the
	// leader could still lose them, and a follower must never get ahead
	// of what the leader can recover.
	if n, err := fw.Poll(context.Background()); err != nil || n != 0 {
		t.Fatalf("poll before leader sync applied %d, err %v", n, err)
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	if n, err := fw.Poll(context.Background()); err != nil || n != 1 {
		t.Fatalf("poll after leader sync applied %d, err %v", n, err)
	}
}

func TestFollowerRestartResumes(t *testing.T) {
	leader, users, pages := durableWorld(t, t.TempDir(), 8, 2, noSync)
	defer leader.Close()
	for i := 0; i < 4; i++ {
		if err := leader.AddLike(users[i], pages[0], at(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	fdir := t.TempDir()
	fw := openTestFollower(t, fdir, leader)
	if _, err := fw.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}

	for i := 4; i < 8; i++ {
		if err := leader.AddLike(users[i], pages[1], at(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}

	// Reopen is plain OpenDurable on the shipped files; the tail resumes
	// from wherever the local chains end.
	fw2 := openTestFollower(t, fdir, leader)
	defer fw2.Close()
	if n, err := fw2.Poll(context.Background()); err != nil || n != 4 {
		t.Fatalf("resumed poll applied %d, err %v", n, err)
	}
	assertReplEqual(t, leader, fw2.Store())
}

// TestFollowerCrashTornTail kills a follower mid-ship — its newest
// local segment ends in a torn frame — and pins that reopening repairs
// the tail exactly like DESIGN §10 crash recovery (truncate to the last
// valid record), refetches the lost suffix, and converges byte-for-byte
// with the leader.
func TestFollowerCrashTornTail(t *testing.T) {
	leader, users, pages := durableWorld(t, t.TempDir(), 10, 2, noSync)
	defer leader.Close()
	for i, u := range users {
		if err := leader.AddLike(u, pages[i%2], at(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	fdir := t.TempDir()
	fw := openTestFollower(t, fdir, leader)
	if _, err := fw.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := fw.Store().Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the shipped chain two ways: chop the last valid record in
	// half (a crash mid-AppendRaw), then smear garbage over the end (a
	// torn frame header).
	byShard, err := listSegments(fdir, 1)
	if err != nil {
		t.Fatal(err)
	}
	segs := byShard[0]
	if len(segs) == 0 {
		t.Fatal("follower has no segments after tailing")
	}
	last := segs[len(segs)-1].path
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-10); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	fw2 := openTestFollower(t, fdir, leader)
	defer fw2.Close()
	// The truncated record was repaired away, so the resumed cursor sits
	// one record short: the poll must refetch exactly the lost suffix.
	if n, err := fw2.Poll(context.Background()); err != nil || n != 1 {
		t.Fatalf("post-repair poll applied %d, err %v", n, err)
	}
	assertReplEqual(t, leader, fw2.Store())
}

func TestFollowerGapAfterLeaderCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := WALOptions{SyncInterval: -1, SegmentMaxBytes: 256}
	leader, users, pages := durableWorld(t, dir, 6, 2, opts)
	defer leader.Close()

	// Bootstrap a follower at the initial floor, then advance and
	// checkpoint the leader so compaction removes the segments the
	// follower's cursor still points into.
	fw := openTestFollower(t, t.TempDir(), leader)
	defer fw.Close()
	for i := 0; i < 12; i++ {
		if err := leader.AddLike(users[i%len(users)], pages[i/len(users)], at(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		leader.AddUser(User{Country: "USA"})
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := leader.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}

	_, err := fw.Poll(context.Background())
	if !errors.Is(err, ErrReplGap) {
		t.Fatalf("poll across a compacted gap: err %v, want ErrReplGap", err)
	}
}

// TestRebootstrapFollowerAfterGap drives a follower into ErrReplGap via
// leader compaction, then re-bootstraps it in place: the directory is
// atomically replaced with a fresh seed of the leader's current
// snapshot, the new follower tails cleanly, and no scratch directories
// survive the swap.
func TestRebootstrapFollowerAfterGap(t *testing.T) {
	dir := t.TempDir()
	opts := WALOptions{SyncInterval: -1, SegmentMaxBytes: 256}
	leader, users, pages := durableWorld(t, dir, 6, 2, opts)
	defer leader.Close()

	fdir := filepath.Join(t.TempDir(), "replica")
	fw := openTestFollower(t, fdir, leader)
	for i := 0; i < 12; i++ {
		if err := leader.AddLike(users[i%len(users)], pages[i/len(users)], at(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		leader.AddUser(User{Country: "USA"})
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := leader.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Poll(context.Background()); !errors.Is(err, ErrReplGap) {
		t.Fatalf("poll across a compacted gap: err %v, want ErrReplGap", err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}

	src := StoreReplSource{Leader: leader}
	fw2, _, err := RebootstrapFollower(context.Background(), fdir, src, FollowerOptions{WAL: noSync})
	if err != nil {
		t.Fatal(err)
	}
	defer fw2.Close()
	if _, err := fw2.Poll(context.Background()); err != nil {
		t.Fatalf("poll after re-bootstrap: %v", err)
	}
	assertReplEqual(t, leader, fw2.Store())

	// New records keep flowing across the new floor.
	nu := leader.AddUser(User{Country: "USA"})
	if err := leader.AddLike(nu, pages[0], at(100)); err != nil {
		t.Fatal(err)
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	if n, err := fw2.Poll(context.Background()); err != nil || n != 2 {
		t.Fatalf("tail after re-bootstrap applied %d, err %v (want 2)", n, err)
	}
	assertReplEqual(t, leader, fw2.Store())

	for _, scratch := range []string{fdir + ".rebootstrap", fdir + ".old"} {
		if _, err := os.Stat(scratch); !os.IsNotExist(err) {
			t.Fatalf("scratch dir %s survived the swap (err %v)", scratch, err)
		}
	}
}

// durableMultiWAL builds a durable store in dir whose WAL runs one
// segment chain per journal shard (WALShards = Shards) — so tests can
// put a record and the entity it references in DIFFERENT chains.
func durableMultiWAL(t *testing.T, dir string, shards, nUsers int) *Store {
	t.Helper()
	st := NewShardedStore(shards)
	for i := 0; i < nUsers; i++ {
		st.AddUser(User{Country: "USA", Searchable: true})
	}
	snap := "snapshot-0000000000000001.gob"
	f, err := os.Create(filepath.Join(dir, snap))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	m := manifest{Version: manifestVersion, Seq: 1, Shards: shards, WALShards: shards, Snapshot: snap, Offsets: make([]uint64, shards)}
	data, err := json.MarshalIndent(&m, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFileDurable(filepath.Join(dir, manifestFile), data); err != nil {
		t.Fatal(err)
	}
	dst, _, err := OpenDurable(dir, noSync)
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestFollowerDefersCrossShardReference: with multiple WAL chains, a
// like can become fetchable BEFORE the creation of the page it
// references — the creation lives in another shard beyond the sweep's
// batch cap or fetch point. The follower must neither discard the like
// (the leader has it applied) nor persist its frame while unapplied (a
// restart's full replay would then apply it and shift the journal's
// record offsets under every saved scorer cursor). It holds the shard
// back and converges once the creation ships.
func TestFollowerDefersCrossShardReference(t *testing.T) {
	ldir := t.TempDir()
	leader := durableMultiWAL(t, ldir, 4, 1) // user 1, in the snapshot
	defer leader.Close()

	fdir := t.TempDir()
	fw, _, err := OpenFollower(context.Background(), fdir, StoreReplSource{Leader: leader},
		FollowerOptions{WAL: noSync, BatchBytes: 1}) // 1 byte: one frame per fetch
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()

	// Ship a like referencing page 5 whose creation has not reached the
	// leader's durable stream yet (it will land in shard 1 later). User
	// 1 is the snapshot's one user — IDs allocate from 1.
	ev := LikeEvent{At: at(1), User: 1, Page: 5, Source: SourceLike}
	leader.wal.Append(0, ev)
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	n, err := fw.Poll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("poll applied %d records with the referenced page missing, want 0", n)
	}
	if fw.Held() != 1 {
		t.Fatalf("Held() = %d, want 1 deferred like", fw.Held())
	}
	if got := fw.Offsets(nil); got[0] != 0 {
		t.Fatalf("follower persisted the unapplied like: shard 0 offset %d, want 0", got[0])
	}
	if got := fw.Store().Journal().Len(); got != 0 {
		t.Fatalf("follower journal has %d events before the page shipped, want 0", got)
	}

	// The creations arrive in shard 1: a filler page first, so the
	// referenced page sits beyond the first 1-frame fetch of the next
	// sweep and the like must survive one more intra-sweep deferral.
	leader.wal.AppendWorld(1, WorldRecord{Kind: WorldPage, Page: Page{ID: 1, Name: "filler"}})
	leader.wal.AppendWorld(1, WorldRecord{Kind: WorldPage, Page: Page{ID: 5, Name: "target"}})
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	if n, err := fw.Poll(context.Background()); err != nil || n != 3 {
		t.Fatalf("catch-up poll applied %d, err %v, want 3", n, err)
	}
	if fw.Held() != 0 {
		t.Fatalf("Held() = %d after convergence, want 0", fw.Held())
	}
	if _, err := fw.Store().Page(5); err != nil {
		t.Fatalf("page 5 did not replicate: %v", err)
	}
	evs := fw.Store().Journal().EventsCanonical(1)
	if len(evs) != 1 || evs[0] != ev {
		t.Fatalf("follower journal = %+v, want exactly the shipped like", evs)
	}

	// Alignment across restart: reopening replays the shipped WAL in
	// full; journal contents and offsets must not shift (a saved scorer
	// cursor stays valid).
	beforeOffsets := fw.Offsets(nil)
	if err := fw.Store().Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	fw2, _, err := OpenFollower(context.Background(), fdir, StoreReplSource{Leader: leader},
		FollowerOptions{WAL: noSync, BatchBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fw2.Close()
	if got := fw2.Offsets(nil); len(got) != len(beforeOffsets) || got[0] != beforeOffsets[0] || got[1] != beforeOffsets[1] {
		t.Fatalf("offsets shifted across restart: %v vs %v", got, beforeOffsets)
	}
	evs2 := fw2.Store().Journal().EventsCanonical(1)
	if len(evs2) != 1 || evs2[0] != ev {
		t.Fatalf("reopened journal = %+v, want exactly the shipped like", evs2)
	}
	if n, err := fw2.Poll(context.Background()); err != nil || n != 0 {
		t.Fatalf("caught-up reopened poll applied %d, err %v", n, err)
	}
}

func TestOffsetsIntoReusesSlice(t *testing.T) {
	j := NewJournal(4)
	r := j.NewReader()
	dst := make([]int, 0, 16)
	out := r.OffsetsInto(dst)
	if len(out) != j.NumShards() || cap(out) != cap(dst) {
		t.Fatalf("reader OffsetsInto did not reuse dst: len %d cap %d", len(out), cap(out))
	}
	dir := t.TempDir()
	st, _, _ := durableWorld(t, dir, 2, 1, noSync)
	defer st.Close()
	wdst := make([]uint64, 0, 8)
	wout := st.ReplOffsets(wdst)
	if cap(wout) != cap(wdst) {
		t.Fatalf("ReplOffsets did not reuse dst: cap %d vs %d", cap(wout), cap(wdst))
	}
}
