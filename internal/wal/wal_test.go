package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// rec builds a one-op record at the given epoch, with the epoch baked
// into the fact so replays are distinguishable.
func rec(epoch uint64) Record {
	return Record{Epoch: epoch, Ops: []Op{{
		Pred: "e", Args: []string{fmt.Sprintf("k%d", epoch), "v"},
	}}}
}

func mustOpen(t *testing.T, opts Options) *Log {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func readAll(t *testing.T, l *Log, from uint64) []Record {
	t.Helper()
	var got []Record
	if err := l.ReadFrom(from, func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatalf("ReadFrom(%d): %v", from, err)
	}
	return got
}

func epochs(recs []Record) []uint64 {
	out := make([]uint64, len(recs))
	for i, r := range recs {
		out[i] = r.Epoch
	}
	return out
}

func TestAppendReadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	want := []Record{
		{Epoch: 1, Ops: []Op{{Pred: "e", Args: []string{"a", "b"}}}},
		{Epoch: 2, Ops: []Op{
			{Pred: "e", Args: []string{"b", "c"}},
			{Retract: true, Pred: "e", Args: []string{"a", "b"}},
		}},
		{Epoch: 3, Ops: []Op{{Pred: "unary", Args: []string{"x"}}}},
		{Epoch: 4, Ops: nil}, // epoch-only record (net-no-change replays)
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got := readAll(t, l, 0)
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Epoch != want[i].Epoch || !reflect.DeepEqual(append([]Op{}, got[i].Ops...), append([]Op{}, want[i].Ops...)) {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if got := readAll(t, l, 2); !reflect.DeepEqual(epochs(got), []uint64{3, 4}) {
		t.Errorf("ReadFrom(2) epochs = %v, want [3 4]", epochs(got))
	}
	if got := readAll(t, l, 4); len(got) != 0 {
		t.Errorf("ReadFrom(4) returned %d records, want 0", len(got))
	}
	if l.LastEpoch() != 4 {
		t.Errorf("LastEpoch = %d, want 4", l.LastEpoch())
	}
}

func TestAppendRejectsNonMonotonicEpoch(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	if err := l.Append(rec(5)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(5)); err == nil {
		t.Error("appending a duplicate epoch succeeded")
	}
	if err := l.Append(rec(4)); err == nil {
		t.Error("appending a past epoch succeeded")
	}
	if err := l.Append(rec(6)); err != nil {
		t.Errorf("appending the next epoch failed: %v", err)
	}
}

func TestReopenRecoversState(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	for e := uint64(1); e <= 20; e++ {
		if err := l.Append(rec(e)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, Options{Dir: dir})
	if l2.LastEpoch() != 20 {
		t.Fatalf("LastEpoch after reopen = %d, want 20", l2.LastEpoch())
	}
	if got := readAll(t, l2, 10); len(got) != 10 || got[0].Epoch != 11 {
		t.Fatalf("ReadFrom(10) after reopen: %v", epochs(got))
	}
	// And the reopened log accepts appends.
	if err := l2.Append(rec(21)); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	for e := uint64(1); e <= 12; e++ {
		if err := l.Append(rec(e)); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.Segments(); n < 3 {
		t.Fatalf("only %d segments with a 64-byte rotation threshold", n)
	}
	if got := epochs(readAll(t, l, 0)); len(got) != 12 || got[0] != 1 || got[11] != 12 {
		t.Fatalf("multi-segment replay epochs = %v", got)
	}
	// Reopen across segments too.
	l.Close()
	l2 := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	if got := epochs(readAll(t, l2, 5)); len(got) != 7 || got[0] != 6 {
		t.Fatalf("reopened multi-segment ReadFrom(5) = %v", got)
	}
}

// lastSegment returns the path of the newest segment file in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	return matches[len(matches)-1]
}

func TestTornTailTruncated(t *testing.T) {
	// A crash mid-append can leave any suffix of the final frame
	// missing. Cut the file at every length in the torn range and check
	// recovery lands on the previous record each time.
	base := t.TempDir()
	l := mustOpen(t, Options{Dir: base})
	if err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	goodLen := func() int64 {
		seg := lastSegment(t, base)
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}()
	if err := l.Append(rec(2)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	segBytes, err := os.ReadFile(lastSegment(t, base))
	if err != nil {
		t.Fatal(err)
	}

	for cut := goodLen + 1; cut < int64(len(segBytes)); cut++ {
		dir := t.TempDir()
		seg := filepath.Join(dir, filepath.Base(lastSegment(t, base)))
		if err := os.WriteFile(seg, segBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut at %d: open failed: %v", cut, err)
		}
		if l2.LastEpoch() != 1 {
			t.Fatalf("cut at %d: LastEpoch = %d, want 1", cut, l2.LastEpoch())
		}
		if got := epochs(readAll(t, l2, 0)); !reflect.DeepEqual(got, []uint64{1}) {
			t.Fatalf("cut at %d: replay = %v, want [1]", cut, got)
		}
		// The torn bytes are gone from disk and the log appends cleanly
		// over the truncation point.
		if err := l2.Append(rec(2)); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		if got := epochs(readAll(t, l2, 0)); !reflect.DeepEqual(got, []uint64{1, 2}) {
			t.Fatalf("cut at %d: replay after append = %v", cut, got)
		}
		l2.Close()
	}
}

func TestCorruptPayloadTruncatedAtTail(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	if err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(2)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Flip a payload byte in the final frame: the CRC check must reject
	// it and recovery truncates back to record 1.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, Options{Dir: dir})
	if l2.LastEpoch() != 1 {
		t.Fatalf("LastEpoch after CRC corruption = %d, want 1", l2.LastEpoch())
	}
}

func TestCorruptionInEarlierSegmentRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	for e := uint64(1); e <= 8; e++ {
		if err := l.Append(rec(e)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 2 {
		t.Fatal("test needs at least two segments")
	}
	l.Close()
	matches, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	first := matches[0]
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, SegmentBytes: 64}); err == nil {
		t.Fatal("open succeeded despite corruption in a sealed segment")
	}
}

func TestOversizeLengthHeaderIsTorn(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	if err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Append a frame header claiming an absurd payload length; recovery
	// must treat it as torn, not try to allocate it.
	seg := lastSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxRecordBytes+1)
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l2 := mustOpen(t, Options{Dir: dir})
	if l2.LastEpoch() != 1 {
		t.Fatalf("LastEpoch = %d, want 1", l2.LastEpoch())
	}
}

func TestSnapshotTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	for e := uint64(1); e <= 10; e++ {
		if err := l.Append(rec(e)); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Segments()
	epoch, err := l.WriteSnapshot(func(w io.Writer) (uint64, error) {
		_, werr := io.WriteString(w, "e(snapshotted, state).\n")
		return 10, werr
	})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 10 {
		t.Fatalf("snapshot epoch = %d, want 10", epoch)
	}
	if after := l.Segments(); after >= before {
		t.Errorf("snapshot kept %d of %d segments", after, before)
	}
	if l.SizeSinceSnapshot() != 0 {
		t.Errorf("SizeSinceSnapshot = %d after snapshot", l.SizeSinceSnapshot())
	}
	path, snapEpoch, ok := l.Snapshot()
	if !ok || snapEpoch != 10 || filepath.Base(path) != "snap-000000000000000a.bin" {
		t.Fatalf("Snapshot() = %q, %d, %v", path, snapEpoch, ok)
	}
	if data, err := os.ReadFile(path); err != nil || !strings.Contains(string(data), "snapshotted") {
		t.Fatalf("snapshot content = %q, %v", data, err)
	}

	// Replay from a truncated position must refuse with ErrGone...
	if err := l.ReadFrom(0, func(Record) error { return nil }); !errors.Is(err, ErrGone) {
		t.Fatalf("ReadFrom(0) after truncation = %v, want ErrGone", err)
	}
	// ...while replay from the snapshot epoch (or any retained record)
	// still works, including across a reopen.
	if got := readAll(t, l, 10); len(got) != 0 {
		t.Fatalf("ReadFrom(10) = %v", epochs(got))
	}
	l.Close()
	l2 := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	if p2, e2, ok := l2.Snapshot(); !ok || e2 != 10 || p2 != path {
		t.Fatalf("reopened Snapshot() = %q, %d, %v", p2, e2, ok)
	}
	if l2.LastEpoch() != 10 {
		t.Fatalf("reopened LastEpoch = %d, want 10", l2.LastEpoch())
	}
	if err := l2.Append(rec(11)); err != nil {
		t.Fatal(err)
	}
	if got := epochs(readAll(t, l2, 10)); !reflect.DeepEqual(got, []uint64{11}) {
		t.Fatalf("post-snapshot replay = %v, want [11]", got)
	}
}

func TestSnapshotReplacesOlderSnapshot(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	snap := func(epoch uint64) {
		t.Helper()
		if err := l.Append(rec(epoch)); err != nil {
			t.Fatal(err)
		}
		if _, err := l.WriteSnapshot(func(w io.Writer) (uint64, error) {
			return epoch, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	snap(1)
	snap(2)
	matches, _ := filepath.Glob(filepath.Join(dir, snapPrefix+"*"))
	if len(matches) != 1 || !strings.HasSuffix(matches[0], snapSuffixBin) {
		t.Fatalf("expected exactly one .bin snapshot on disk, found %v", matches)
	}
	if _, epoch, _ := l.Snapshot(); epoch != 2 {
		t.Fatalf("snapshot epoch = %d, want 2", epoch)
	}
}

// A directory an older daemon wrote holds snap-<epoch>.dl fact text:
// the segments it covered are gone, so Open must refuse it by name —
// alone, or beside a binary snapshot — rather than recover without it.
func TestLegacyTextSnapshotRefused(t *testing.T) {
	for _, bin := range []bool{false, true} {
		dir := t.TempDir()
		if bin {
			l := mustOpen(t, Options{Dir: dir})
			if _, err := l.WriteSnapshot(func(io.Writer) (uint64, error) { return 9, nil }); err != nil {
				t.Fatal(err)
			}
			l.Close()
		}
		legacy := filepath.Join(dir, "snap-0000000000000007.dl")
		if err := os.WriteFile(legacy, []byte("e(a, b).\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(Options{Dir: dir})
		if err == nil || !strings.Contains(err.Error(), legacy) || !strings.Contains(err.Error(), "predates binary snapshots") {
			t.Fatalf("beside a .bin: %v; Open = %v, want a refusal naming %s", bin, err, legacy)
		}
	}
}

func TestFailedSnapshotLeavesLogIntact(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	if err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := l.WriteSnapshot(func(io.Writer) (uint64, error) {
		return 0, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("WriteSnapshot error = %v, want boom", err)
	}
	if _, _, ok := l.Snapshot(); ok {
		t.Error("failed snapshot was recorded")
	}
	if got := epochs(readAll(t, l, 0)); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("replay after failed snapshot = %v", got)
	}
	// The temp file must not linger for the next Open to trip over.
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
}

func TestSyncPolicies(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"": SyncAlways, "always": SyncAlways, "rotate": SyncRotate, "none": SyncRotate,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted garbage")
	}

	// SyncRotate still yields a fully readable log after Close (which
	// syncs), and the fsync observer fires for SyncAlways appends.
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Sync: SyncRotate})
	for e := uint64(1); e <= 5; e++ {
		if err := l.Append(rec(e)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l2 := mustOpen(t, Options{Dir: dir, Sync: SyncRotate})
	if l2.LastEpoch() != 5 {
		t.Fatalf("SyncRotate LastEpoch after reopen = %d", l2.LastEpoch())
	}

	fsyncs := 0
	la := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncAlways})
	la.SetFsyncObserver(func(time.Duration) { fsyncs++ })
	if err := la.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	if fsyncs == 0 {
		t.Error("SyncAlways append did not fsync")
	}
}

func TestReadFromConcurrentWithAppend(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	if err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := uint64(2); e <= 200; e++ {
			if err := l.Append(rec(e)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Interleave replays with the append storm: every replay must see a
	// strictly increasing, gap-free prefix starting after `from`.
	for i := 0; i < 50; i++ {
		from := uint64(i % 3)
		prev := from
		if err := l.ReadFrom(from, func(r Record) error {
			if r.Epoch != prev+1 {
				return fmt.Errorf("epoch %d after %d", r.Epoch, prev)
			}
			prev = r.Epoch
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}
