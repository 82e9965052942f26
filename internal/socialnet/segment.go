package socialnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Segment files are the journal's on-disk form: one directory holds one
// sharded stream of journal records, each shard a chain of append-only
// segment files. A segment is a fixed header followed by framed
// records:
//
//	header  = magic "LIKESEG1" | uint32 version | uint32 shard | uint64 start
//	record  = uint32 payloadLen | uint32 crc32(payload) | payload
//	payload = uint8 recType | type-specific body
//
// All integers are little-endian. `start` is the stream index of the
// segment's first record within its shard, so a segment's name and
// header together place every record at an absolute per-shard offset —
// the coordinate system the snapshot manifest's Offsets use. Records
// are one event (or one world mutation) each: recovery granularity is
// a single record, and a torn tail (a crash mid-write) costs at most
// the unsynced suffix.
//
// Records are typed: alongside like events (recLike), the WAL journals
// world mutations — user and page creations, friendship edges,
// account-status and visibility updates — so a checkpoint can persist
// only the delta since the previous snapshot instead of a full world
// snapshot. Version 2 is the only format read or written; a segment
// with the magic but any other version (the like-only version 1
// included) fails to open with ErrCorruptSegment and stays on disk.
const (
	segMagic   = "LIKESEG1"
	segVersion = 2

	segHeaderSize    = 8 + 4 + 4 + 8
	eventPayloadSize = 8 + 8 + 8 + 1
	// recordSize is the framed size of a like record (the only
	// fixed-size guarantee tests rely on); world records vary.
	recordSize = 4 + 4 + 1 + eventPayloadSize
	// maxRecordPayload bounds a framed payload; a longer claimed length
	// is treated as a torn/garbage frame, not an allocation request.
	maxRecordPayload = 1 << 20
)

// recType tags a framed record's payload.
type recType uint8

const (
	recLike       recType = 1
	recUser       recType = 2
	recPage       recType = 3
	recFriend     recType = 4
	recStatus     recType = 5
	recFriendsVis recType = 6
)

// WorldKind enumerates the world-mutation records a durable store
// journals alongside likes.
type WorldKind uint8

// World mutation kinds.
const (
	WorldUser       WorldKind = iota + 1 // a user creation (the full record)
	WorldPage                            // a page creation
	WorldFriend                          // a friendship edge
	WorldStatus                          // an account-status update
	WorldFriendsVis                      // a friend-list visibility update
)

// WorldRecord is one journaled world mutation. Exactly the fields for
// its Kind are meaningful: User for WorldUser, Page for WorldPage,
// (A, B) for WorldFriend, (A, Status) for WorldStatus, (A, Visible)
// for WorldFriendsVis.
type WorldRecord struct {
	Kind    WorldKind
	User    User
	Page    Page
	A, B    UserID
	Status  AccountStatus
	Visible bool
}

// walRecord is one recovered journal record: a like event or a world
// mutation.
type walRecord struct {
	like  bool
	ev    LikeEvent
	world WorldRecord
}

// ErrCorruptSegment marks a segment whose body fails validation
// somewhere other than a repairable torn tail.
var ErrCorruptSegment = errors.New("socialnet: corrupt segment")

// frameStart reserves the 8-byte len+crc frame in buf; the caller
// appends the payload and calls frameFinish on the same region.
func frameStart(buf []byte) (out []byte, frameOff int) {
	frameOff = len(buf)
	return append(buf, 0, 0, 0, 0, 0, 0, 0, 0), frameOff
}

// frameFinish back-fills the length and CRC for the payload appended
// since frameStart.
func frameFinish(buf []byte, frameOff int) []byte {
	payload := buf[frameOff+8:]
	binary.LittleEndian.PutUint32(buf[frameOff:frameOff+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[frameOff+4:frameOff+8], crc32.ChecksumIEEE(payload))
	return buf
}

func appendU64(buf []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(buf, b[:]...)
}

// appendStr16 appends a uint16-length-prefixed string. Strings here
// are human-scale profile fields; anything longer is truncated rather
// than corrupting the frame.
func appendStr16(buf []byte, s string) []byte {
	if len(s) > 0xFFFF {
		s = s[:0xFFFF]
	}
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], uint16(len(s)))
	buf = append(buf, b[:]...)
	return append(buf, s...)
}

// encodeEvent appends the framed v2 record for a like event to buf.
func encodeEvent(buf []byte, ev LikeEvent) []byte {
	buf, off := frameStart(buf)
	buf = append(buf, byte(recLike))
	buf = appendLikeBody(buf, ev)
	return frameFinish(buf, off)
}

func appendLikeBody(buf []byte, ev LikeEvent) []byte {
	buf = appendU64(buf, uint64(ev.At.UnixNano()))
	buf = appendU64(buf, uint64(ev.User))
	buf = appendU64(buf, uint64(ev.Page))
	return append(buf, byte(ev.Source))
}

// encodeWorld appends the framed v2 record for a world mutation to buf.
func encodeWorld(buf []byte, rec WorldRecord) []byte {
	buf, off := frameStart(buf)
	switch rec.Kind {
	case WorldUser:
		u := rec.User
		buf = append(buf, byte(recUser))
		buf = appendU64(buf, uint64(u.ID))
		buf = appendU64(buf, uint64(u.CreatedAt.UnixNano()))
		buf = appendU64(buf, uint64(u.DeclaredFriends))
		var flags byte
		if u.FriendsPublic {
			flags |= 1
		}
		if u.Searchable {
			flags |= 2
		}
		buf = append(buf, byte(u.Gender), byte(u.Age), byte(u.Status), byte(u.Kind), flags)
		buf = appendStr16(buf, u.Country)
		buf = appendStr16(buf, u.HomeTown)
		buf = appendStr16(buf, u.CurrentTown)
		buf = appendStr16(buf, u.Operator)
	case WorldPage:
		p := rec.Page
		buf = append(buf, byte(recPage))
		buf = appendU64(buf, uint64(p.ID))
		buf = appendU64(buf, uint64(p.Owner))
		buf = appendU64(buf, uint64(p.CreatedAt.UnixNano()))
		var flags byte
		if p.Honeypot {
			flags |= 1
		}
		buf = append(buf, flags)
		buf = appendStr16(buf, p.Name)
		buf = appendStr16(buf, p.Description)
		buf = appendStr16(buf, p.Category)
	case WorldFriend:
		buf = append(buf, byte(recFriend))
		buf = appendU64(buf, uint64(rec.A))
		buf = appendU64(buf, uint64(rec.B))
	case WorldStatus:
		buf = append(buf, byte(recStatus))
		buf = appendU64(buf, uint64(rec.A))
		buf = append(buf, byte(rec.Status))
	case WorldFriendsVis:
		buf = append(buf, byte(recFriendsVis))
		buf = appendU64(buf, uint64(rec.A))
		var vis byte
		if rec.Visible {
			vis = 1
		}
		buf = append(buf, vis)
	default:
		panic(fmt.Sprintf("socialnet: unknown WorldKind %d", rec.Kind))
	}
	return frameFinish(buf, off)
}

// byteReader walks a record payload; a short read flips ok and every
// later read returns zero values, so decoders can validate once at the
// end.
type byteReader struct {
	buf []byte
	ok  bool
}

func (r *byteReader) u64() uint64 {
	if len(r.buf) < 8 {
		r.ok = false
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[:8])
	r.buf = r.buf[8:]
	return v
}

func (r *byteReader) u8() byte {
	if len(r.buf) < 1 {
		r.ok = false
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

func (r *byteReader) str16() string {
	if len(r.buf) < 2 {
		r.ok = false
		return ""
	}
	n := int(binary.LittleEndian.Uint16(r.buf[:2]))
	r.buf = r.buf[2:]
	if len(r.buf) < n {
		r.ok = false
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// decodeLikeBody rebuilds an event from the fixed-size like body (the
// payload of a v1 record, or a v2 recLike payload after its type byte).
func decodeLikeBody(payload []byte) LikeEvent {
	return LikeEvent{
		At:     time.Unix(0, int64(binary.LittleEndian.Uint64(payload[0:8]))).UTC(),
		User:   UserID(binary.LittleEndian.Uint64(payload[8:16])),
		Page:   PageID(binary.LittleEndian.Uint64(payload[16:24])),
		Source: LikeSource(payload[24]),
	}
}

// decodeRecord parses one v2 payload (type byte included) into a
// walRecord. ok=false means the payload is malformed — the scanner
// treats that exactly like a CRC mismatch: a torn tail.
func decodeRecord(payload []byte) (walRecord, bool) {
	if len(payload) < 1 {
		return walRecord{}, false
	}
	typ, body := recType(payload[0]), payload[1:]
	switch typ {
	case recLike:
		if len(body) != eventPayloadSize {
			return walRecord{}, false
		}
		return walRecord{like: true, ev: decodeLikeBody(body)}, true
	case recUser:
		r := byteReader{buf: body, ok: true}
		var u User
		u.ID = UserID(r.u64())
		u.CreatedAt = time.Unix(0, int64(r.u64())).UTC()
		u.DeclaredFriends = int(r.u64())
		u.Gender = Gender(r.u8())
		u.Age = AgeBracket(r.u8())
		u.Status = AccountStatus(r.u8())
		u.Kind = AccountKind(r.u8())
		flags := r.u8()
		u.FriendsPublic = flags&1 != 0
		u.Searchable = flags&2 != 0
		u.Country = r.str16()
		u.HomeTown = r.str16()
		u.CurrentTown = r.str16()
		u.Operator = r.str16()
		if !r.ok || len(r.buf) != 0 {
			return walRecord{}, false
		}
		return walRecord{world: WorldRecord{Kind: WorldUser, User: u}}, true
	case recPage:
		r := byteReader{buf: body, ok: true}
		var p Page
		p.ID = PageID(r.u64())
		p.Owner = UserID(r.u64())
		p.CreatedAt = time.Unix(0, int64(r.u64())).UTC()
		flags := r.u8()
		p.Honeypot = flags&1 != 0
		p.Name = r.str16()
		p.Description = r.str16()
		p.Category = r.str16()
		if !r.ok || len(r.buf) != 0 {
			return walRecord{}, false
		}
		return walRecord{world: WorldRecord{Kind: WorldPage, Page: p}}, true
	case recFriend:
		if len(body) != 16 {
			return walRecord{}, false
		}
		return walRecord{world: WorldRecord{
			Kind: WorldFriend,
			A:    UserID(binary.LittleEndian.Uint64(body[0:8])),
			B:    UserID(binary.LittleEndian.Uint64(body[8:16])),
		}}, true
	case recStatus:
		if len(body) != 9 {
			return walRecord{}, false
		}
		return walRecord{world: WorldRecord{
			Kind:   WorldStatus,
			A:      UserID(binary.LittleEndian.Uint64(body[0:8])),
			Status: AccountStatus(body[8]),
		}}, true
	case recFriendsVis:
		if len(body) != 9 {
			return walRecord{}, false
		}
		return walRecord{world: WorldRecord{
			Kind:    WorldFriendsVis,
			A:       UserID(binary.LittleEndian.Uint64(body[0:8])),
			Visible: body[8] != 0,
		}}, true
	default:
		return walRecord{}, false
	}
}

// segmentHeader writes the fixed header for a new segment.
func segmentHeader(shard int, start uint64) []byte {
	buf := make([]byte, segHeaderSize)
	copy(buf[0:8], segMagic)
	binary.LittleEndian.PutUint32(buf[8:12], segVersion)
	binary.LittleEndian.PutUint32(buf[12:16], uint32(shard))
	binary.LittleEndian.PutUint64(buf[16:24], start)
	return buf
}

// parseSegmentHeader validates the header and returns (shard, start).
func parseSegmentHeader(buf []byte) (int, uint64, error) {
	if len(buf) < segHeaderSize {
		return 0, 0, fmt.Errorf("%w: short header (%d bytes)", ErrCorruptSegment, len(buf))
	}
	if string(buf[0:8]) != segMagic {
		return 0, 0, fmt.Errorf("%w: bad magic", ErrCorruptSegment)
	}
	if v := binary.LittleEndian.Uint32(buf[8:12]); v != segVersion {
		return 0, 0, fmt.Errorf("%w: unsupported segment version %d, want %d", ErrCorruptSegment, v, segVersion)
	}
	shard := int(binary.LittleEndian.Uint32(buf[12:16]))
	start := binary.LittleEndian.Uint64(buf[16:24])
	return shard, start, nil
}

// scanSegment reads every valid record from an open segment file and
// returns the decoded records plus validSize, the byte offset just past
// the last intact record. A short frame, short payload, CRC mismatch,
// or undecodable payload ends the scan — everything before it is
// trusted, everything from it on is the torn tail. The caller decides
// whether a tail is repairable (last segment of a shard) or fatal (an
// interior segment).
func scanSegment(f *os.File) (records []walRecord, validSize int64, shard int, start uint64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, 0, 0, err
	}
	header := make([]byte, segHeaderSize)
	if _, err := io.ReadFull(f, header); err != nil {
		return nil, 0, 0, 0, fmt.Errorf("%w: %s: unreadable header", ErrCorruptSegment, f.Name())
	}
	shard, start, err = parseSegmentHeader(header)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("%s: %w", f.Name(), err)
	}
	validSize = segHeaderSize
	var frame [8]byte
	payload := make([]byte, 0, 256)
	for {
		if _, err := io.ReadFull(f, frame[:]); err != nil {
			return records, validSize, shard, start, nil // clean EOF or torn frame
		}
		n := binary.LittleEndian.Uint32(frame[0:4])
		if n == 0 || n > maxRecordPayload {
			return records, validSize, shard, start, nil // garbage length: torn
		}
		if cap(payload) < int(n) {
			payload = make([]byte, 0, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(f, payload); err != nil {
			return records, validSize, shard, start, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[4:8]) {
			return records, validSize, shard, start, nil // corrupt record: torn
		}
		rec, ok := decodeRecord(payload)
		if !ok {
			return records, validSize, shard, start, nil // undecodable record: torn
		}
		records = append(records, rec)
		validSize += int64(8 + n)
	}
}

// segmentHeaderReadable reports whether the file begins with a valid
// segment header. It distinguishes a torn segment creation (a short
// header or a wrong magic: the header never reached the disk —
// repairable by dropping the file) from a readable segment whose body
// may still need tail repair. A complete header with the segment magic
// but a version this build does not read is no crash artifact: it is
// an error, and the file is left in place.
func segmentHeaderReadable(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	header := make([]byte, segHeaderSize)
	if _, err := io.ReadFull(f, header); err != nil {
		return false, nil // short file: header never landed
	}
	if string(header[0:8]) != segMagic {
		return false, nil // garbage header: same crash window
	}
	if _, _, err := parseSegmentHeader(header); err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	return true, nil
}

// segmentFileName places a segment in its directory: shard index and
// the per-shard stream index of its first event.
func segmentFileName(shard int, start uint64) string {
	return fmt.Sprintf("s%04d-%016d.seg", shard, start)
}

// segmentRef locates one segment file on disk.
type segmentRef struct {
	path  string
	shard int
	start uint64
}

// listSegments finds every segment file under dir, grouped by shard and
// sorted by start offset within each shard.
func listSegments(dir string, nShards int) ([][]segmentRef, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	byShard := make([][]segmentRef, nShards)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".seg") || !strings.HasPrefix(name, "s") {
			continue
		}
		base := strings.TrimSuffix(strings.TrimPrefix(name, "s"), ".seg")
		parts := strings.SplitN(base, "-", 2)
		if len(parts) != 2 {
			continue
		}
		shard, err1 := strconv.Atoi(parts[0])
		start, err2 := strconv.ParseUint(parts[1], 10, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		if shard < 0 || shard >= nShards {
			return nil, fmt.Errorf("%w: %s names shard %d of %d", ErrCorruptSegment, name, shard, nShards)
		}
		byShard[shard] = append(byShard[shard], segmentRef{
			path:  filepath.Join(dir, name),
			shard: shard,
			start: start,
		})
	}
	for _, segs := range byShard {
		sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	}
	return byShard, nil
}
