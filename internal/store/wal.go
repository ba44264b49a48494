package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Dir is the file-backed Provider: each component gets a subdirectory
// of the root holding numbered WAL segments ("wal-00000003.log") plus a
// snapshot file ("snap"). One Dir serves a whole node's components.
type Dir struct {
	root string
	pol  SyncPolicy
}

// batchEvery is the group-commit size under SyncBatch: fsync once per
// this many appends.
const batchEvery = 8

// NewDir creates (if needed) the root directory and returns a provider
// with the given fsync policy.
func NewDir(root string, pol SyncPolicy) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Dir{root: root, pol: pol}, nil
}

// Open opens the named component store under the root, recovering from
// whatever a previous incarnation left behind: the snapshot is read and
// validated, covered segments are deleted, and each surviving segment
// is scanned record by record — a torn or corrupted tail is truncated
// to the last valid record.
func (d *Dir) Open(name string) (Stable, error) {
	return openWAL(filepath.Join(d.root, name), d.pol)
}

// WAL record framing: [4B LE payload length][4B LE CRC32C][payload].
// The snapshot file is one such record whose payload is prefixed with
// the 8-byte segment number it covers through.
const recHeader = 8

// maxRecord bounds a single record (a defense against reading a torn
// length field as a multi-GB allocation).
const maxRecord = 1 << 30

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends rec, framed, to dst.
func appendFrame(dst, rec []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(rec, castagnoli))
	return append(dst, rec...)
}

// scanRecords walks the framed records in data, calling fn for each
// valid one, and returns the length of the valid prefix. A short
// header, impossible length, short payload, or CRC mismatch ends the
// scan — everything from that offset on is a torn tail.
func scanRecords(data []byte, fn func(rec []byte) error) (int, error) {
	off := 0
	for {
		if len(data)-off < recHeader {
			return off, nil
		}
		n := binary.LittleEndian.Uint32(data[off : off+4])
		if n > maxRecord || int(n) > len(data)-off-recHeader {
			return off, nil
		}
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		payload := data[off+recHeader : off+recHeader+int(n)]
		if crc32.Checksum(payload, castagnoli) != crc {
			return off, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, err
			}
		}
		off += recHeader + int(n)
	}
}

// walFile is the file-backed Stable for one component directory.
type walFile struct {
	mu  sync.Mutex
	dir string
	pol SyncPolicy

	f        *os.File // active segment
	seg      uint64   // active segment number
	unsynced int
	frame    []byte // Append's framing buffer, reused across appends

	// older holds fully written segments not yet covered by a snapshot
	// (possible after a crash between snapshot save and rotation
	// cleanup); Replay reads them before the active segment.
	older []string
}

func segName(seg uint64) string { return fmt.Sprintf("wal-%08d.log", seg) }

func parseSeg(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
	return n, err == nil
}

func openWAL(dir string, pol SyncPolicy) (*walFile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	w := &walFile{dir: dir, pol: pol}

	// Snapshot first: its header names the segment it covers through.
	_, covers, hasSnap, err := readSnapshot(dir)
	if err != nil {
		return nil, err
	}

	// Collect segments, drop those the snapshot covers, and truncate
	// any torn tail in the survivors.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var segs []uint64
	for _, e := range entries {
		if n, ok := parseSeg(e.Name()); ok {
			if n <= covers && hasSnap {
				_ = os.Remove(filepath.Join(dir, e.Name()))
				continue
			}
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	for _, n := range segs {
		if err := truncateTorn(filepath.Join(dir, segName(n))); err != nil {
			return nil, err
		}
	}

	// The highest surviving segment becomes the active one; earlier
	// ones wait for the next snapshot to cover them.
	w.seg = covers + 1
	if len(segs) > 0 {
		w.seg = segs[len(segs)-1]
		for _, n := range segs[:len(segs)-1] {
			w.older = append(w.older, filepath.Join(dir, segName(n)))
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(w.seg)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	w.f = f
	lg.Infof("opened WAL in %s: active segment %d, %d older, snapshot=%v", dir, w.seg, len(w.older), hasSnap)
	return w, nil
}

// readSnapshot loads and validates the snapshot file: its payload, the
// segment number it covers through, and ok=false when the file is
// absent. A file that does not hold one intact record is an error: the
// tmp+fsync+rename write path never leaves a torn one, and the segments
// it covered are gone, so the tail alone is not the component's state.
func readSnapshot(dir string) (snap []byte, covers uint64, ok bool, err error) {
	b, err := os.ReadFile(filepath.Join(dir, "snap"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, false, nil
		}
		return nil, 0, false, fmt.Errorf("store: %w", err)
	}
	_, _ = scanRecords(b, func(payload []byte) error {
		if !ok && len(payload) >= 8 {
			covers, snap, ok = binary.LittleEndian.Uint64(payload[:8]), payload[8:], true
		}
		return nil
	})
	if !ok {
		return nil, 0, false, fmt.Errorf("store: %s: snapshot file does not hold one intact record", dir)
	}
	return snap, covers, true, nil
}

// truncateTorn cuts the file down to its valid record prefix.
func truncateTorn(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	valid, _ := scanRecords(b, nil)
	if valid < len(b) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return fmt.Errorf("store: truncate torn tail of %s: %w", path, err)
		}
		mTruncs.Inc()
		lg.Warnf("truncated torn tail of %s: %d of %d bytes valid", path, valid, len(b))
	}
	return nil
}

func (w *walFile) Append(rec []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("store: %s: append on closed store", w.dir)
	}
	w.frame = appendFrame(w.frame[:0], rec)
	if _, err := w.f.Write(w.frame); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	mAppends.Inc()
	w.unsynced++
	switch w.pol {
	case SyncAlways:
		return w.syncLocked()
	case SyncBatch:
		if w.unsynced >= batchEvery {
			return w.syncLocked()
		}
	}
	return nil
}

func (w *walFile) syncLocked() error {
	if w.unsynced == 0 || w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	mFsyncs.Inc()
	w.unsynced = 0
	return nil
}

// Sync flushes any unsynced appends — the covering fsync callers issue
// at an acknowledgement point (group commit, an acceptor reply). Under
// SyncNever it is a no-op: that policy is an explicit opt-out of
// durability, and an ack-point sync would silently reintroduce the
// cost the caller asked to shed. Under SyncAlways nothing is ever
// pending, so the call returns without touching the disk.
func (w *walFile) Sync() error {
	if w.pol == SyncNever {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *walFile) Replay(fn func(rec []byte) error) error {
	w.mu.Lock()
	files := append(append([]string(nil), w.older...), filepath.Join(w.dir, segName(w.seg)))
	w.mu.Unlock()
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return fmt.Errorf("store: %w", err)
		}
		if _, err := scanRecords(b, func(rec []byte) error {
			mReplays.Inc()
			return fn(rec)
		}); err != nil {
			return err
		}
	}
	return nil
}

func (w *walFile) SaveSnapshot(snap []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("store: %s: snapshot on closed store", w.dir)
	}
	// 1. Write the snapshot to a temp file and fsync it: one record
	// whose payload is the covered segment number followed by snap,
	// framed in place so a large snapshot is not copied to be written.
	var hdr [recHeader + 8]byte
	binary.LittleEndian.PutUint64(hdr[recHeader:], w.seg)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(8+len(snap)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Update(crc32.Checksum(hdr[recHeader:], castagnoli), castagnoli, snap))
	tmp := filepath.Join(w.dir, "snap.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(hdr[:]); err == nil {
		_, err = f.Write(snap)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// 2. Atomically replace the previous snapshot and make the rename
	// durable. From this point recovery uses the new snapshot.
	if err := os.Rename(tmp, filepath.Join(w.dir, "snap")); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	syncDir(w.dir)
	// 3. Rotate: open a fresh segment, then delete everything the
	// snapshot covers. A crash between these steps is safe — open
	// ignores segments at or below the snapshot's covers-through number.
	oldSeg, oldF := w.seg, w.f
	w.seg++
	nf, err := os.OpenFile(filepath.Join(w.dir, segName(w.seg)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		w.seg = oldSeg
		return fmt.Errorf("store: %w", err)
	}
	oldF.Close()
	w.f = nf
	w.unsynced = 0
	_ = os.Remove(filepath.Join(w.dir, segName(oldSeg)))
	for _, p := range w.older {
		_ = os.Remove(p)
	}
	w.older = nil
	mSnaps.Inc()
	lg.Debugf("snapshot saved in %s (%d bytes), rotated to segment %d", w.dir, len(snap), w.seg)
	return nil
}

func (w *walFile) Snapshot() ([]byte, bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	snap, _, ok, err := readSnapshot(w.dir)
	return snap, ok, err
}

func (w *walFile) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// syncDir fsyncs a directory so a rename within it is durable.
// Best-effort: some platforms reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
