package socialnet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// noSync disables the background fsync ticker in tests: Sync/Close are
// exercised explicitly where the test wants durability boundaries.
var noSync = WALOptions{SyncInterval: -1}

// durableWorld builds a durable store in dir with nUsers users and
// nPages pages (users before pages, so IDs are 1..nUsers for users).
func durableWorld(t testing.TB, dir string, nUsers, nPages int, opts WALOptions) (*Store, []UserID, []PageID) {
	t.Helper()
	st := NewShardedStore(4)
	var users []UserID
	for i := 0; i < nUsers; i++ {
		users = append(users, st.AddUser(User{Country: "USA", Searchable: true}))
	}
	var pages []PageID
	for i := 0; i < nPages; i++ {
		pid, err := st.AddPage(Page{Name: fmt.Sprintf("page-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, pid)
	}
	if err := st.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	dst, _, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return dst, users, pages
}

func at(sec int) time.Time {
	return time.Date(2014, 3, 12, 0, 0, sec, 0, time.UTC)
}

func TestDurableReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, users, pages := durableWorld(t, dir, 10, 3, noSync)
	want := 0
	for i, u := range users {
		for j, p := range pages {
			if (i+j)%2 == 0 {
				if err := st.AddLike(u, p, at(i*10+j)); err != nil {
					t.Fatal(err)
				}
				want++
			}
		}
	}
	// A bulk history import (SourceHistory) must survive the restart
	// too; user 0 likes only even-index pages, so pages[1] is free.
	if err := st.AddHistory(users[0], []Like{{Page: pages[1], At: at(999)}}); err != nil {
		t.Fatal(err)
	}
	want++
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, stats, err := OpenDurable(dir, noSync)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if stats.DroppedEvents != 0 || stats.DupEvents != 0 {
		t.Fatalf("unexpected recovery stats: %+v", stats)
	}
	if got := re.Journal().Len(); got != want {
		t.Fatalf("journal after reopen: %d events, want %d", got, want)
	}
	a := st.Journal().EventsCanonical(1)
	b := re.Journal().EventsCanonical(1)
	if len(a) != len(b) {
		t.Fatalf("canonical lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("canonical event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	for _, p := range pages {
		if st.LikeCountOfPage(p) != re.LikeCountOfPage(p) {
			t.Fatalf("page %d like count differs after reopen", p)
		}
	}
}

func TestDurableReopenAcceptsNewWrites(t *testing.T) {
	dir := t.TempDir()
	st, users, pages := durableWorld(t, dir, 4, 2, noSync)
	if err := st.AddLike(users[0], pages[0], at(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, _, err := OpenDurable(dir, noSync)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.AddLike(users[1], pages[0], at(2)); err != nil {
		t.Fatal(err)
	}
	if err := re.AddLike(users[0], pages[0], at(3)); err == nil {
		t.Fatal("duplicate like accepted after reopen — likeSet not rebuilt")
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, _, err := OpenDurable(dir, noSync)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := re2.LikeCountOfPage(pages[0]); got != 2 {
		t.Fatalf("like count after second reopen = %d, want 2", got)
	}
}

// TestCheckpointCompacts: after a checkpoint covering all events, a
// rotated (non-active) segment must be gone and reopen must still see
// every event.
func TestCheckpointCompacts(t *testing.T) {
	dir := t.TempDir()
	// Rotate every ~6 records (header 24 + 6*33 = 222 bytes).
	opts := WALOptions{SyncInterval: -1, SegmentMaxBytes: 220}
	st, users, pages := durableWorld(t, dir, 1, 40, opts)
	u := users[0]
	for i, p := range pages {
		if err := st.AddLike(u, p, at(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	segsBefore := countSegments(t, dir)
	if segsBefore < 3 {
		t.Fatalf("expected several segments before compaction, got %d", segsBefore)
	}
	if err := st.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if segsAfter := countSegments(t, dir); segsAfter >= segsBefore {
		t.Fatalf("compaction removed nothing: %d -> %d segments", segsBefore, segsAfter)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, stats, err := OpenDurable(dir, noSync)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Journal().Len(); got != len(pages) {
		t.Fatalf("after compaction+reopen: %d events, want %d (stats %+v)", got, len(pages), stats)
	}
}

func countSegments(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".seg" {
			n++
		}
	}
	return n
}

// TestTornTailRecoveryEveryByte is the torn-write property test: a WAL
// whose final record is truncated at EVERY byte boundary — or corrupted
// at every byte offset — must reopen with exactly the prefix events,
// and the repaired log must accept new appends.
func TestTornTailRecoveryEveryByte(t *testing.T) {
	master := t.TempDir()
	const likes = 7
	// One user => one journal shard => one segment file.
	st, users, pages := durableWorld(t, master, 1, likes, noSync)
	u := users[0]
	for i, p := range pages {
		if err := st.AddLike(u, p, at(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, segSize := onlySegment(t, master)
	wantFull := int64(segHeaderSize + likes*recordSize)
	if segSize != wantFull {
		t.Fatalf("segment size %d, want %d", segSize, wantFull)
	}
	lastRecordStart := segSize - recordSize

	check := func(t *testing.T, dir string, wantEvents int) {
		re, stats, err := OpenDurable(dir, noSync)
		if err != nil {
			t.Fatalf("open after damage: %v", err)
		}
		if got := re.Journal().Len(); got != wantEvents {
			t.Fatalf("recovered %d events, want %d (stats %+v)", got, wantEvents, stats)
		}
		// The repaired WAL must keep working: append and re-reopen.
		if err := re.AddLike(u, pages[len(pages)-1], at(100)); err != nil && wantEvents < likes {
			// pages[last] may or may not still be liked depending on the cut;
			// use a page index that is always free after damage instead.
			t.Fatalf("append after repair: %v", err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		re2, _, err := OpenDurable(dir, noSync)
		if err != nil {
			t.Fatalf("second reopen after repair: %v", err)
		}
		re2.Close()
	}

	for cut := lastRecordStart; cut < segSize; cut++ {
		t.Run(fmt.Sprintf("truncate@%d", cut), func(t *testing.T) {
			dir := cloneDir(t, master)
			p, _ := onlySegment(t, dir)
			if err := os.Truncate(p, cut); err != nil {
				t.Fatal(err)
			}
			check(t, dir, likes-1)
		})
	}
	for off := lastRecordStart; off < segSize; off++ {
		t.Run(fmt.Sprintf("corrupt@%d", off), func(t *testing.T) {
			dir := cloneDir(t, master)
			p, _ := onlySegment(t, dir)
			flipByte(t, p, off)
			check(t, dir, likes-1)
		})
	}
	// Control: an undamaged clone recovers everything.
	t.Run("intact", func(t *testing.T) {
		check(t, cloneDir(t, master), likes)
	})
}

// TestInteriorCorruptionIsFatal: damage before the final record cannot
// be repaired by tail truncation without losing acknowledged records
// that follow it — open must refuse rather than silently drop them.
// (Framing resynchronization is impossible: record boundaries after a
// corrupt length prefix cannot be trusted.)
func TestInteriorCorruptionRecoversPrefixOnly(t *testing.T) {
	master := t.TempDir()
	const likes = 5
	st, users, pages := durableWorld(t, master, 1, likes, noSync)
	for i, p := range pages {
		if err := st.AddLike(users[0], p, at(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	dir := cloneDir(t, master)
	p, _ := onlySegment(t, dir)
	// Corrupt record 2 (0-indexed) of 5: recovery keeps records 0-1.
	flipByte(t, p, int64(segHeaderSize+2*recordSize+10))
	re, _, err := OpenDurable(dir, noSync)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Journal().Len(); got != 2 {
		t.Fatalf("recovered %d events, want 2 (prefix before corruption)", got)
	}
}

func onlySegment(t *testing.T, dir string) (string, int64) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var path string
	var size int64
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".seg" {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() > segHeaderSize { // skip empty segments of other shards
				if path != "" {
					t.Fatalf("expected one non-empty segment, found %s and %s", path, e.Name())
				}
				path = filepath.Join(dir, e.Name())
				size = info.Size()
			}
		}
	}
	if path == "" {
		t.Fatal("no non-empty segment found")
	}
	return path, size
}

func cloneDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAppendsDuringCheckpoint is the -race exercise: many
// goroutines appending likes while checkpoints run concurrently, then a
// reopen must see every acknowledged like exactly once.
func TestConcurrentAppendsDuringCheckpoint(t *testing.T) {
	dir := t.TempDir()
	const (
		writers = 8
		perW    = 200
	)
	st, _, _ := durableWorld(t, dir, writers, writers*perW, noSync)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			u := UserID(w + 1)
			for i := 0; i < perW; i++ {
				p := PageID(w*perW + i + 1)
				if err := st.AddLike(u, p, at(w*perW+i)); err != nil {
					t.Errorf("AddLike(%d,%d): %v", u, p, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	checkpoints := 0
	for {
		if err := st.Checkpoint(dir); err != nil {
			t.Errorf("checkpoint: %v", err)
			break
		}
		checkpoints++
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	<-done
	if t.Failed() {
		return
	}
	// One more checkpoint after quiescence, then reopen and verify.
	if err := st.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, stats, err := OpenDurable(dir, noSync)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if stats.DroppedEvents != 0 {
		t.Fatalf("recovery dropped %d events", stats.DroppedEvents)
	}
	want := writers * perW
	if got := re.Journal().Len(); got != want {
		t.Fatalf("reopened journal has %d events, want %d (after %d live checkpoints, stats %+v)",
			got, want, checkpoints, stats)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perW; i++ {
			if !re.Likes(UserID(w+1), PageID(w*perW+i+1)) {
				t.Fatalf("like (%d,%d) lost across checkpointed restart", w+1, w*perW+i+1)
			}
		}
	}
}

// TestCrashBeforeSyncLosesOnlyUnsyncedTail: without a Sync/Close, a
// copy of the directory (simulating a crash that never flushed) must
// still open cleanly — losing at most the buffered suffix, never
// corrupting the world.
func TestCrashBeforeSyncLosesOnlyUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	st, users, pages := durableWorld(t, dir, 1, 20, WALOptions{SyncEvery: 7, SyncInterval: -1})
	for i, p := range pages {
		if err := st.AddLike(users[0], p, at(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the crash: copy what reached the filesystem, no Close.
	crash := cloneDir(t, dir)
	re, _, err := OpenDurable(crash, noSync)
	if err != nil {
		t.Fatalf("open after simulated crash: %v", err)
	}
	defer re.Close()
	got := re.Journal().Len()
	// 20 appends, SyncEvery=7 => syncs fired after appends 7 and 14, so
	// at least 14 events reached the filesystem before the crash (the
	// OS may have more — bufio flushes on fill too — never fewer).
	if got < 14 || got > 20 {
		t.Fatalf("recovered %d events; want within [14,20]", got)
	}
	events := re.Journal().EventsCanonical(1)
	for i, ev := range events {
		if ev.Page != pages[i] {
			t.Fatalf("recovered events are not the prefix: event %d is page %d, want %d", i, ev.Page, pages[i])
		}
	}
}

// TestTornSegmentCreationIsRepaired: a crash between segment rotation
// and the first flush leaves the newest segment file empty (or with a
// garbage header) — nothing in it ever reached the disk. Open must
// drop it and resume, not fail forever.
func TestTornSegmentCreationIsRepaired(t *testing.T) {
	master := t.TempDir()
	const likes = 4
	st, users, pages := durableWorld(t, master, 1, likes+1, noSync)
	for i := 0; i < likes; i++ {
		if err := st.AddLike(users[0], pages[i], at(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segPath, _ := onlySegment(t, master)
	shard, err := strconv.Atoi(filepath.Base(segPath)[1:5])
	if err != nil {
		t.Fatal(err)
	}
	for _, tornHeader := range [][]byte{nil, []byte("garbage!!!")} {
		dir := cloneDir(t, master)
		torn := filepath.Join(dir, segmentFileName(shard, likes))
		if err := os.WriteFile(torn, tornHeader, 0o644); err != nil {
			t.Fatal(err)
		}
		re, _, err := OpenDurable(dir, noSync)
		if err != nil {
			t.Fatalf("open with torn segment creation (%d header bytes): %v", len(tornHeader), err)
		}
		if got := re.Journal().Len(); got != likes {
			t.Fatalf("recovered %d events, want %d", got, likes)
		}
		if _, err := os.Stat(torn); !os.IsNotExist(err) {
			t.Fatalf("torn segment not removed: %v", err)
		}
		// The shard must accept appends again and survive another cycle.
		if err := re.AddLike(users[0], pages[likes], at(100)); err != nil {
			t.Fatal(err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		re2, _, err := OpenDurable(dir, noSync)
		if err != nil {
			t.Fatal(err)
		}
		if got := re2.Journal().Len(); got != likes+1 {
			t.Fatalf("after repair+append: %d events, want %d", got, likes+1)
		}
		re2.Close()
	}
}

// TestManifestWithoutWALShardsRejected: a manifest from before the WAL
// file count was recorded (WALShards absent) fails to open with an
// error naming the missing count, instead of guessing the chain layout.
func TestManifestWithoutWALShardsRejected(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := durableWorld(t, dir, 2, 2, noSync)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["WALShards"]; !ok {
		t.Fatalf("manifest has no WALShards key to remove: %s", data)
	}
	delete(m, "WALShards")
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenDurable(dir, noSync); err == nil || !strings.Contains(err.Error(), "WAL shard count") {
		t.Fatalf("open over a manifest without WALShards: err = %v, want a missing-count error", err)
	}
}

// TestManifestAheadOfSegments: if a crash leaves the segment chain
// ending below the manifest's offsets (the checkpoint synced the
// snapshot but the WAL flush never landed — all such events are inside
// the snapshot by the offsets-before-snapshot invariant), recovery must
// resume appending AT the offset, never below it: an append below the
// claimed range would be skipped as "covered" by the next recovery.
func TestManifestAheadOfSegments(t *testing.T) {
	dir := t.TempDir()
	// extra is sized so the second checkpoint's delta crosses the
	// incremental threshold and a FULL snapshot (claiming offsets
	// k+extra) is written — the scenario needs a manifest whose
	// snapshot covers records the chain then loses.
	const k, extra = 6, 7
	st, users, pages := durableWorld(t, dir, 1, k+extra+1, noSync)
	for i := 0; i < k; i++ {
		if err := st.AddLike(users[0], pages[i], at(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < extra; i++ {
		if err := st.AddLike(users[0], pages[k+i], at(k+i)); err != nil {
			t.Fatal(err)
		}
	}
	// Second checkpoint claims offsets k+extra; snapshot covers all.
	if err := st.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn WAL flush: chop the last `extra` records off the
	// shard's segment so the chain ends below the manifest offsets.
	segPath, segSize := onlySegment(t, dir)
	if err := os.Truncate(segPath, segSize-int64(extra*recordSize)); err != nil {
		t.Fatal(err)
	}

	re, stats, err := OpenDurable(dir, noSync)
	if err != nil {
		t.Fatalf("open with manifest ahead of segments: %v", err)
	}
	if got := re.Journal().Len(); got != k+extra {
		t.Fatalf("recovered %d events, want %d (all in snapshot; stats %+v)", got, k+extra, stats)
	}
	// New appends must land at/after the claimed offsets and survive.
	if err := re.AddLike(users[0], pages[k+extra], at(100)); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, _, err := OpenDurable(dir, noSync)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := re2.Journal().Len(); got != k+extra+1 {
		t.Fatalf("after append+reopen: %d events, want %d — the post-crash append was skipped as snapshot-covered", got, k+extra+1)
	}
	if !re2.Likes(users[0], pages[k+extra]) {
		t.Fatal("post-crash like lost across reopen")
	}
}

// TestWorldMutationsSurviveCrash: with world mutations journaled
// alongside likes, everything done to a durable store AFTER it was
// opened — user and page creations, friendships, likes, terminations,
// visibility flips — must survive a crash with no checkpoint at all.
// This is the property that removed the old "world must precede the
// first checkpoint" caveat. Group commit (SyncEvery: 1) means every
// acknowledged mutation is already on disk when the crash hits.
func TestWorldMutationsSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	st, users, _ := durableWorld(t, dir, 2, 1, WALOptions{SyncEvery: 1, SyncInterval: -1})
	defer st.Close()

	u1 := st.AddUser(User{Country: "UK", Searchable: true, Gender: GenderFemale})
	u2 := st.AddUser(User{Country: "IT"})
	pid, err := st.AddPage(Page{Name: "campaign", Honeypot: true, Owner: users[0]})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Friend(u1, u2); err != nil {
		t.Fatal(err)
	}
	if err := st.Friend(u1, users[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.AddLike(u1, pid, at(5)); err != nil {
		t.Fatal(err)
	}
	if err := st.Terminate(u2); err != nil {
		t.Fatal(err)
	}
	if err := st.SetFriendsPublic(u1, true); err != nil {
		t.Fatal(err)
	}

	crash := cloneDir(t, dir) // no Sync, no Close, no Checkpoint
	re, stats, err := OpenDurable(crash, noSync)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	ru1, err := re.User(u1)
	if err != nil {
		t.Fatalf("user created after open lost in crash: %v", err)
	}
	if ru1.Country != "UK" || ru1.Gender != GenderFemale || !ru1.Searchable {
		t.Fatalf("user attributes mangled in replay: %+v", ru1)
	}
	if !ru1.FriendsPublic {
		t.Fatal("visibility flip lost in crash")
	}
	ru2, err := re.User(u2)
	if err != nil {
		t.Fatal(err)
	}
	if ru2.Status != StatusTerminated {
		t.Fatal("termination lost in crash")
	}
	pg, err := re.Page(pid)
	if err != nil {
		t.Fatalf("page created after open lost in crash: %v", err)
	}
	if !pg.Honeypot || pg.Name != "campaign" || pg.Owner != users[0] {
		t.Fatalf("page attributes mangled in replay: %+v", pg)
	}
	if !re.AreFriends(u1, u2) || !re.AreFriends(u1, users[0]) {
		t.Fatal("friendships lost in crash")
	}
	if !re.Likes(u1, pid) {
		t.Fatal("like lost in crash")
	}
	found := false
	for _, id := range re.Directory() {
		if id == u1 {
			found = true
		}
	}
	if !found {
		t.Fatal("searchable user missing from rebuilt directory")
	}
	if stats.TailWorld < 6 {
		t.Fatalf("TailWorld = %d, want >= 6 (2 users, 1 page, 2 edges, 1 status, 1 visibility)", stats.TailWorld)
	}
	if stats.DroppedEvents != 0 {
		t.Fatalf("DroppedEvents = %d, want 0", stats.DroppedEvents)
	}
	// The ID counters must resume past the replayed entities: a fresh
	// AddUser on the recovered store gets the next unused ID, not a
	// collision with u2.
	nu := re.AddUser(User{})
	if nu != u2+1 {
		t.Fatalf("post-recovery AddUser assigned %d, want %d", nu, u2+1)
	}
	if ru2b, err := re.User(u2); err != nil || ru2b.Status != StatusTerminated {
		t.Fatal("new user clobbered a replayed one")
	}
}

// TestIncrementalCheckpointSkipsSnapshotRewrite: a checkpoint whose
// delta is small relative to the world must NOT rewrite the snapshot —
// it fsyncs the WAL tail and republishes the manifest against the same
// snapshot and offsets — while a large delta escalates to a full
// snapshot that resets the tail.
func TestIncrementalCheckpointSkipsSnapshotRewrite(t *testing.T) {
	dir := t.TempDir()
	st, users, pages := durableWorld(t, dir, 40, 40, noSync)
	m1, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		if err := st.AddLike(users[i], pages[i], at(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	m2, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Seq != m1.Seq+1 {
		t.Fatalf("incremental checkpoint seq = %d, want %d", m2.Seq, m1.Seq+1)
	}
	if m2.Snapshot != m1.Snapshot {
		t.Fatalf("small-delta checkpoint rewrote the snapshot: %s -> %s", m1.Snapshot, m2.Snapshot)
	}
	if !reflect.DeepEqual(m2.Offsets, m1.Offsets) {
		t.Fatalf("incremental checkpoint moved offsets %v -> %v; they describe snapshot coverage, which did not move", m1.Offsets, m2.Offsets)
	}

	// The checkpoint still made the delta durable: a crash image taken
	// now must recover all three likes from the tail.
	crash := cloneDir(t, dir)
	re, stats, err := OpenDurable(crash, noSync)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TailEvents != 3 {
		t.Fatalf("TailEvents = %d, want 3 (the incremental delta)", stats.TailEvents)
	}
	for i := 0; i < 3; i++ {
		if !re.Likes(users[i], pages[i]) {
			t.Fatalf("like %d lost after incremental checkpoint + crash", i)
		}
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// A large delta (comparable to the world) escalates to a full
	// snapshot: fresh snapshot file, offsets at the new high-water mark.
	for i := 0; i < 40; i++ {
		if err := st.AddLike(users[i], pages[(i+5)%40], at(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	m3, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Snapshot == m2.Snapshot {
		t.Fatal("large-delta checkpoint should have written a fresh snapshot")
	}
	var covered uint64
	for _, o := range m3.Offsets {
		covered += o
	}
	if covered != 43 {
		t.Fatalf("full checkpoint covers %d records, want 43", covered)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re2, stats2, err := OpenDurable(dir, noSync)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := re2.Journal().Len(); got != 43 {
		t.Fatalf("reopened journal has %d events, want 43", got)
	}
	if stats2.TailEvents != 0 {
		t.Fatalf("TailEvents = %d after full checkpoint, want 0 (all snapshot-covered)", stats2.TailEvents)
	}
}
