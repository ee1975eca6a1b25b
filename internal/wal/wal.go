// Package wal implements chainlogd's durable write-ahead log: an
// ordered, segmented, CRC-checked record of every fact Delta, keyed by the
// DB fact epoch it lands at. A record is appended and synced before it is
// applied, so no reader sees an undurable write.
//
// The engine's mutation model is already a replication protocol in
// disguise — ordered Delta+Apply batches are an op log, the fact epoch
// is a log sequence number, and SnapshotBinary is a snapshot. This
// package gives that log a durable on-disk form:
//
//   - records are binary frames (length + CRC32-Castagnoli + payload)
//     appended to segment files named wal-<first-epoch>.seg;
//   - segments rotate at Options.SegmentBytes and the fsync policy is a
//     flag (SyncAlways per append, SyncRotate only at segment
//     boundaries and snapshots);
//   - a snapshot (snap-<epoch>.bin holding the binary columnar form of
//     the store at that epoch) is written atomically — temp file,
//     fsync, rename, directory fsync — and allows every segment wholly
//     at or below its epoch to be deleted; Open refuses a directory
//     holding the snap-<epoch>.dl fact text older daemons wrote, since
//     the segments it covered are gone;
//   - Open tolerates a torn tail: a crash mid-append leaves a partial
//     or CRC-broken final frame, which recovery truncates away; torn
//     frames anywhere but the final segment's tail are real corruption
//     and refuse to open;
//   - a failed append leaves the log as it was: a failed write is cut
//     back off the segment, and a failed fsync or cut fails the log, which
//     refuses appends until a restart recovers it (a later fsync's success
//     says nothing of the pages the failed one lost).
//
// Readers (crash recovery, the /v1/replicate feed) replay records with
// ReadFrom, which serves only committed bytes, so tailing a live log
// never observes a half-written frame; feeds wait on the DB's fact epoch.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Op is one fact mutation inside a record, and the op of chainlog's
// Delta, so a record becomes a Delta without a copy.
type Op struct {
	Retract bool     `json:"retract,omitempty"`
	Pred    string   `json:"pred"`
	Args    []string `json:"args"`
}

// Record is one Delta: the ordered ops and the fact epoch the database
// reaches by applying them. Epochs in a log are strictly
// increasing; replaying a record onto a database already at or past its
// epoch is a no-op (chainlog.DB.ApplyAt), which makes replay idempotent.
type Record struct {
	Epoch uint64 `json:"epoch"`
	Ops   []Op   `json:"ops"`
}

// SyncPolicy says when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs the active segment after every append: a record
	// acknowledged to a client survives kill -9 and power loss.
	SyncAlways SyncPolicy = iota
	// SyncRotate fsyncs only at segment rotation, snapshots and Close:
	// a crash can lose the tail of the active segment (torn-tail
	// recovery truncates it), in exchange for mutation latency.
	SyncRotate
)

// ParseSyncPolicy maps the -fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "rotate", "none":
		return SyncRotate, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want \"always\" or \"rotate\")", s)
}

// Options configures Open.
type Options struct {
	// Dir is the log directory; created if absent. Required.
	Dir string
	// SegmentBytes is the rotation threshold. Default 64 MiB.
	SegmentBytes int64
	// Sync is the fsync policy. Default SyncAlways.
	Sync SyncPolicy
}

// ErrGone reports that a requested replay position has been truncated
// away by a snapshot: the caller must bootstrap from the snapshot
// instead of tailing the log. The /v1/replicate feed maps it to HTTP
// 410 Gone.
var ErrGone = errors.New("wal: requested epochs truncated by a snapshot")

// errTorn marks a frame that does not decode cleanly; recovery turns it
// into a truncation at the last good offset when it sits at the tail of
// the final segment.
var errTorn = errors.New("wal: torn record")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	frameHeader    = 8       // uint32 payload length + uint32 CRC32C
	maxRecordBytes = 1 << 28 // decode sanity bound on a single frame
	segPrefix      = "wal-"
	segSuffix      = ".seg"
	snapPrefix     = "snap-"
	snapSuffixBin  = ".bin" // binary columnar snapshot (SnapshotBinary format)
)

// segment is one on-disk log file. first is the epoch of its first
// record (from the filename); size counts committed bytes — readers
// never read past it, so tailing a live segment cannot observe a
// half-written frame.
type segment struct {
	path  string
	first uint64
	size  int64
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use; Append calls must come from a single logical writer (the
// daemon's commit path) to keep epochs ordered.
type Log struct {
	opts Options

	mu        sync.Mutex
	segs      []segment // ascending by first epoch; last is active
	active    *os.File  // open handle on the last segment, nil if none
	lastEpoch uint64    // epoch of the final record, 0 if log empty
	snapEpoch uint64    // epoch of the newest snapshot, 0 if none
	snapPath  string
	sinceSnap int64 // bytes appended since the newest snapshot
	failed    error // set by the first failed fsync or cut; never cleared

	// segWrite and segSync write and fsync the active segment: the os.File
	// methods, except in the package's own tests, which fault them.
	segWrite func(*os.File, []byte, int64) (int, error)
	segSync  func(*os.File) error

	onFsync func(time.Duration) // observer for fsync latency metrics
}

// Open opens (or creates) the log in opts.Dir, recovering from a torn
// tail: a partial or CRC-broken final frame in the last segment is
// truncated away. Corruption anywhere else fails the open — that is
// data loss the operator must see, not skip.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{opts: opts, segWrite: (*os.File).WriteAt, segSync: (*os.File).Sync}
	if err := l.scan(); err != nil {
		return nil, err
	}
	return l, nil
}

// SetFsyncObserver installs a callback receiving the duration of every
// segment fsync (for the daemon's WAL fsync histogram).
func (l *Log) SetFsyncObserver(f func(time.Duration)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onFsync = f
}

// scan enumerates the directory, validates every segment and truncates
// a torn tail on the final one.
func (l *Log) scan() error {
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix):
			var first uint64
			if _, err := fmt.Sscanf(name, segPrefix+"%016x"+segSuffix, &first); err != nil {
				return fmt.Errorf("wal: malformed segment name %s", name)
			}
			l.segs = append(l.segs, segment{path: filepath.Join(l.opts.Dir, name), first: first})
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffixBin):
			var epoch uint64
			if _, err := fmt.Sscanf(name, snapPrefix+"%016x"+snapSuffixBin, &epoch); err != nil {
				return fmt.Errorf("wal: malformed snapshot name %s", name)
			}
			if epoch > l.snapEpoch || l.snapPath == "" {
				l.snapEpoch = epoch
				l.snapPath = filepath.Join(l.opts.Dir, name)
			}
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, ".dl"):
			// Fact text from before binary snapshots. The segments it
			// covered are truncated, so recovering without it would
			// silently lose those epochs.
			return fmt.Errorf("wal: %s predates binary snapshots and is no longer read; "+
				"boot a release that still reads it until its next snapshot replaces it with a .bin",
				filepath.Join(l.opts.Dir, name))
		case strings.HasSuffix(name, ".tmp"):
			// A snapshot write that never reached its rename; harmless.
			_ = os.Remove(filepath.Join(l.opts.Dir, name))
		}
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].first < l.segs[j].first })
	for i := range l.segs {
		seg := &l.segs[i]
		last := i == len(l.segs)-1
		end, lastEpoch, err := scanSegment(seg.path)
		if err != nil {
			if !(last && errors.Is(err, errTorn)) {
				return fmt.Errorf("wal: segment %s: %w", seg.path, err)
			}
			// Torn tail on the final segment: a crash mid-append. Truncate
			// to the last cleanly framed record and continue from there.
			if terr := os.Truncate(seg.path, end); terr != nil {
				return terr
			}
		}
		seg.size = end
		if lastEpoch > l.lastEpoch {
			l.lastEpoch = lastEpoch
		}
	}
	// Reopen the final segment for appending; earlier segments are
	// immutable and opened per read.
	if n := len(l.segs); n > 0 {
		f, err := os.OpenFile(l.segs[n-1].path, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		l.active = f
	}
	if l.lastEpoch < l.snapEpoch {
		l.lastEpoch = l.snapEpoch
	}
	return nil
}

// scanSegment walks a segment's frames, returning the offset past the
// last valid record and that record's epoch. A frame that cannot be
// decoded yields errTorn with end at the last good offset.
func scanSegment(path string) (end int64, lastEpoch uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := &frameReader{r: f}
	for {
		rec, ok, err := r.next()
		if err != nil {
			return end, lastEpoch, err
		}
		if !ok {
			return end, lastEpoch, nil
		}
		end = r.off
		lastEpoch = rec.Epoch
	}
}

// frameReader decodes frames sequentially, tracking the offset past the
// last fully decoded frame.
type frameReader struct {
	r   io.Reader
	off int64
	buf []byte
}

// next returns the next record; ok=false at a clean EOF. Any partial or
// corrupt frame yields errTorn.
func (fr *frameReader) next() (Record, bool, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return Record{}, false, nil
		}
		return Record{}, false, errTorn
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 || length > maxRecordBytes {
		return Record{}, false, errTorn
	}
	if cap(fr.buf) < int(length) {
		fr.buf = make([]byte, length)
	}
	payload := fr.buf[:length]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return Record{}, false, errTorn
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return Record{}, false, errTorn
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		return Record{}, false, errTorn
	}
	fr.off += int64(frameHeader) + int64(length)
	return rec, true, nil
}

// encodeRecord renders the binary payload: uvarint epoch, uvarint op
// count, then per op a retract flag byte and length-prefixed pred/args.
func encodeRecord(rec Record) []byte {
	buf := binary.AppendUvarint(nil, rec.Epoch)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Ops)))
	for _, op := range rec.Ops {
		flag := byte(0)
		if op.Retract {
			flag = 1
		}
		buf = append(buf, flag)
		buf = binary.AppendUvarint(buf, uint64(len(op.Pred)))
		buf = append(buf, op.Pred...)
		buf = binary.AppendUvarint(buf, uint64(len(op.Args)))
		for _, a := range op.Args {
			buf = binary.AppendUvarint(buf, uint64(len(a)))
			buf = append(buf, a...)
		}
	}
	return buf
}

func decodeRecord(buf []byte) (Record, error) {
	var rec Record
	next := func() (uint64, error) {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return 0, errTorn
		}
		buf = buf[n:]
		return v, nil
	}
	str := func() (string, error) {
		n, err := next()
		if err != nil || n > uint64(len(buf)) {
			return "", errTorn
		}
		s := string(buf[:n])
		buf = buf[n:]
		return s, nil
	}
	epoch, err := next()
	if err != nil {
		return rec, err
	}
	rec.Epoch = epoch
	nops, err := next()
	if err != nil || nops > maxRecordBytes {
		return rec, errTorn
	}
	rec.Ops = make([]Op, 0, nops)
	for i := uint64(0); i < nops; i++ {
		if len(buf) < 1 {
			return rec, errTorn
		}
		op := Op{Retract: buf[0] == 1}
		buf = buf[1:]
		if op.Pred, err = str(); err != nil {
			return rec, err
		}
		nargs, err := next()
		if err != nil || nargs > maxRecordBytes {
			return rec, errTorn
		}
		op.Args = make([]string, 0, nargs)
		for j := uint64(0); j < nargs; j++ {
			a, err := str()
			if err != nil {
				return rec, err
			}
			op.Args = append(op.Args, a)
		}
		rec.Ops = append(rec.Ops, op)
	}
	if len(buf) != 0 {
		return rec, errTorn
	}
	return rec, nil
}

// Append writes one record durably (per the sync policy). Record epochs
// must be strictly increasing. A failed append leaves the log as it was;
// a failed log returns its Err.
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if rec.Epoch <= l.lastEpoch {
		return fmt.Errorf("wal: append epoch %d not after last epoch %d", rec.Epoch, l.lastEpoch)
	}
	payload := encodeRecord(rec)
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeader:], payload)

	n := len(l.segs)
	if l.active == nil || (l.segs[n-1].size > 0 && l.segs[n-1].size+int64(len(frame)) > l.opts.SegmentBytes) {
		if err := l.rotateLocked(rec.Epoch); err != nil {
			return err
		}
		n = len(l.segs)
	}
	_, err := l.segWrite(l.active, frame, l.segs[n-1].size)
	if err == nil && l.opts.Sync == SyncAlways {
		err = l.syncActiveLocked()
	}
	if err != nil {
		// Cut what the frame wrote back off the segment. Frames are written
		// at the committed size, so no file offset needs restoring.
		if terr := l.active.Truncate(l.segs[n-1].size); terr != nil {
			return l.failLocked(terr)
		}
		return err
	}
	l.segs[n-1].size += int64(len(frame))
	l.sinceSnap += int64(len(frame))
	l.lastEpoch = rec.Epoch
	return nil
}

// rotateLocked seals the active segment and starts a new one whose
// first record will be epoch.
func (l *Log) rotateLocked(epoch uint64) error {
	if l.active != nil {
		if err := l.syncActiveLocked(); err != nil {
			return err
		}
		if err := l.active.Close(); err != nil {
			return err
		}
		l.active = nil
	}
	path := filepath.Join(l.opts.Dir, fmt.Sprintf(segPrefix+"%016x"+segSuffix, epoch))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	l.active = f
	l.segs = append(l.segs, segment{path: path, first: epoch})
	if err := syncDir(l.opts.Dir); err != nil {
		return l.failLocked(err) // the new segment's name may not be durable
	}
	return nil
}

func (l *Log) syncActiveLocked() error {
	start := time.Now()
	err := l.segSync(l.active)
	if l.onFsync != nil {
		l.onFsync(time.Since(start))
	}
	if err != nil {
		return l.failLocked(err)
	}
	return nil
}

// failLocked fails the log with err unless it failed already, and returns
// the failure.
func (l *Log) failLocked(err error) error {
	if l.failed == nil {
		l.failed = fmt.Errorf("wal: log failed, appends refused until a restart recovers it: %w", err)
	}
	return l.failed
}

// Err returns the error that failed the log, or nil.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// LastEpoch returns the epoch of the final record (or of the snapshot,
// whichever is newer); 0 for an empty log.
func (l *Log) LastEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastEpoch
}

// OldestEpoch returns the first epoch still present in segment files,
// or 0 if the log holds no records.
func (l *Log) OldestEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.oldestLocked()
}

func (l *Log) oldestLocked() uint64 {
	for _, s := range l.segs {
		if s.size > 0 {
			return s.first
		}
	}
	return 0
}

// Snapshot returns the newest snapshot's path and epoch, if any.
func (l *Log) Snapshot() (path string, epoch uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapPath, l.snapEpoch, l.snapPath != ""
}

// SizeSinceSnapshot reports bytes appended since the newest snapshot —
// the daemon's auto-snapshot trigger.
func (l *Log) SizeSinceSnapshot() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceSnap
}

// Segments reports the number of live segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// ReadFrom replays every committed record with epoch > from, in order.
// It returns ErrGone when records after from have been truncated away
// by a snapshot (the caller must bootstrap from the snapshot). Reading
// concurrently with Append is safe: only bytes committed at call time
// are visited.
func (l *Log) ReadFrom(from uint64, fn func(Record) error) error {
	l.mu.Lock()
	if from < l.lastEpoch {
		// Records in (from, oldest) are not on disk: either a snapshot
		// truncated them or they predate this log. Both cases are only
		// bridgeable by a snapshot bootstrap, so refuse the silent hole.
		if oldest := l.oldestLocked(); oldest == 0 || from+1 < oldest {
			l.mu.Unlock()
			return ErrGone
		}
	}
	segs := make([]segment, len(l.segs))
	copy(segs, l.segs)
	l.mu.Unlock()

	for i, seg := range segs {
		if seg.size == 0 {
			continue
		}
		// A segment's epochs live in [first, nextFirst): skip it when the
		// whole range is at or below from.
		if i+1 < len(segs) && segs[i+1].first <= from+1 {
			continue
		}
		f, err := os.Open(seg.path)
		if err != nil {
			if os.IsNotExist(err) {
				return ErrGone // truncated between the metadata copy and here
			}
			return err
		}
		fr := &frameReader{r: io.LimitReader(f, seg.size)}
		for fr.off < seg.size {
			rec, ok, err := fr.next()
			if err != nil || !ok {
				f.Close()
				return fmt.Errorf("wal: segment %s: corrupt committed record at offset %d", seg.path, fr.off)
			}
			if rec.Epoch <= from {
				continue
			}
			if err := fn(rec); err != nil {
				f.Close()
				return err
			}
		}
		f.Close()
	}
	return nil
}

// WriteSnapshot atomically persists a snapshot: write calls back with a
// temp-file writer and returns the fact epoch the content captures
// (chainlog.DB.SnapshotBinary does exactly that). The file replaces
// snap-<epoch>.bin (see ReplaceFile), and every segment whose records
// all lie at or below the epoch is deleted. Older snapshots are removed
// last, so a crash anywhere leaves a valid recovery chain on disk.
func (l *Log) WriteSnapshot(write func(io.Writer) (uint64, error)) (uint64, error) {
	var epoch uint64
	var final string
	err := ReplaceFile(l.opts.Dir, snapPrefix+"*.tmp", func(w io.Writer) (string, error) {
		var err error
		epoch, err = write(w)
		final = filepath.Join(l.opts.Dir, fmt.Sprintf(snapPrefix+"%016x"+snapSuffixBin, epoch))
		return final, err
	})
	if err != nil {
		return 0, err
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	oldSnap := l.snapPath
	if epoch >= l.snapEpoch {
		l.snapEpoch = epoch
		l.snapPath = final
		l.sinceSnap = 0
		if epoch > l.lastEpoch {
			l.lastEpoch = epoch
		}
	}
	// Truncate: segment i is disposable when the next segment starts at
	// or below epoch+1 (so no record above epoch lives in it). The
	// active segment always stays.
	kept := l.segs[:0]
	for i, seg := range l.segs {
		if i+1 < len(l.segs) && l.segs[i+1].first <= epoch+1 {
			_ = os.Remove(seg.path)
			continue
		}
		kept = append(kept, seg)
	}
	l.segs = kept
	if oldSnap != "" && oldSnap != final {
		_ = os.Remove(oldSnap)
	}
	return epoch, nil
}

// Close seals the log. Appending after Close is an error.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return nil
	}
	if err := l.syncActiveLocked(); err != nil {
		return err
	}
	err := l.active.Close()
	l.active = nil
	return err
}

// ReplaceFile writes a file in dir crash-safely: write fills a temp file
// named after pattern (see os.CreateTemp) and returns the file's final
// path, and the temp file is fsynced, closed and renamed to that path,
// with a directory fsync making the rename durable. A crash at any point
// leaves either the old complete file or the new complete one, never a
// torn one.
func ReplaceFile(dir, pattern string, write func(io.Writer) (string, error)) error {
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	final, err := write(tmp)
	if err != nil {
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
	if err := os.Rename(tmp.Name(), final); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and creations within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
