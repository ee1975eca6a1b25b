package wal

import (
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
)

var errDisk = errors.New("injected disk fault")

// A write that fails after putting part of a frame on disk must not leave
// those bytes in the segment: the next append lands where the failed frame
// began, and every acknowledged record survives a reopen. The failed frame
// is longer than the ones after it and the segment seals before they
// cover it, so stray bytes left behind would sit inside a sealed segment,
// which a reopen refuses as corrupt.
func TestShortWriteLeavesLogAsItWas(t *testing.T) {
	frameLen := func(r Record) int64 { return int64(frameHeader + len(encodeRecord(r))) }
	big := Record{Epoch: 2, Ops: []Op{{Pred: "e", Args: []string{strings.Repeat("x", 49), "v"}}}}
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: frameLen(rec(1)) + frameLen(big)})
	if err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	l.segWrite = func(f *os.File, b []byte, off int64) (int, error) {
		n, err := f.WriteAt(b[:len(b)-1], off)
		if err != nil {
			t.Fatal(err)
		}
		return n, errDisk
	}
	if err := l.Append(big); !errors.Is(err, errDisk) {
		t.Fatalf("short write: Append = %v, want the write's error", err)
	}
	if err := l.Err(); err != nil {
		t.Fatalf("a rolled-back write failed the log: %v", err)
	}
	l.segWrite = (*os.File).WriteAt
	for _, e := range []uint64{2, 3, 4, 5} {
		if err := l.Append(rec(e)); err != nil {
			t.Fatalf("Append(%d) after the short write: %v", e, err)
		}
	}
	if got := l.Segments(); got != 2 {
		t.Fatalf("%d segments, want the first sealed and a second", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, Options{Dir: dir})
	if got := l2.LastEpoch(); got != 5 {
		t.Fatalf("reopened LastEpoch = %d, want 5", got)
	}
	if got := epochs(readAll(t, l2, 0)); !reflect.DeepEqual(got, []uint64{1, 2, 3, 4, 5}) {
		t.Fatalf("reopened log holds %v, want [1 2 3 4 5]", got)
	}
}

// A failed fsync fails the log for good: a disk that works again does not
// clear it, every later Append returns the first error, and a reopen — the
// recovery a restart runs — keeps every acknowledged record and appends
// again.
func TestFailedFsyncFailsLog(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	if err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	l.segSync = func(*os.File) error { return errDisk }
	first := l.Append(rec(2))
	if !errors.Is(first, errDisk) {
		t.Fatalf("failed fsync: Append = %v, want the fsync's error", first)
	}
	l.segSync = (*os.File).Sync
	for _, e := range []uint64{2, 3} {
		if err := l.Append(rec(e)); err == nil || err.Error() != first.Error() {
			t.Fatalf("Append(%d) after a failed fsync = %v, want the first error %v", e, err, first)
		}
	}
	if err := l.Err(); err == nil || err.Error() != first.Error() {
		t.Fatalf("Err = %v, want %v", err, first)
	}
	if got := l.LastEpoch(); got != 1 {
		t.Fatalf("LastEpoch = %d after refused appends, want 1", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, Options{Dir: dir})
	if got := epochs(readAll(t, l2, 0)); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("reopened log holds %v, want [1]", got)
	}
	if err := l2.Append(rec(2)); err != nil {
		t.Fatalf("Append after the reopen: %v", err)
	}
}

// A segment write that fails and cannot be cut back off fails the log too.
func TestFailedRollbackFailsLog(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	if err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	l.segWrite = func(f *os.File, b []byte, off int64) (int, error) {
		f.Close() // the truncate that follows fails on the closed file
		return 0, errDisk
	}
	if err := l.Append(rec(2)); err == nil || l.Err() == nil {
		t.Fatalf("Append = %v, Err = %v: want a failed log", err, l.Err())
	}
	l.segWrite = (*os.File).WriteAt
	if err := l.Append(rec(2)); err == nil {
		t.Fatal("a failed log accepted an append")
	}
}
