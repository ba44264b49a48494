package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openDir(t *testing.T, root string, pol SyncPolicy) Stable {
	t.Helper()
	d, err := NewDir(root, pol)
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.Open("comp")
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func replayAll(t *testing.T, st Stable) [][]byte {
	t.Helper()
	var recs [][]byte
	if err := st.Replay(func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestWALAppendReplayReopen(t *testing.T) {
	root := t.TempDir()
	st := openDir(t, root, SyncAlways)
	for i := 0; i < 10; i++ {
		if err := st.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = openDir(t, root, SyncAlways)
	recs := replayAll(t, st)
	if len(recs) != 10 {
		t.Fatalf("replayed %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if string(r) != fmt.Sprintf("rec-%d", i) {
			t.Fatalf("record %d = %q", i, r)
		}
	}
	// Appends after recovery land after the replayed ones.
	if err := st.Append([]byte("rec-10")); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, st); len(got) != 11 || string(got[10]) != "rec-10" {
		t.Fatalf("after reopen+append: %d records, last %q", len(got), got[len(got)-1])
	}
	st.Close()
}

func walPath(t *testing.T, root string) string {
	t.Helper()
	var paths []string
	filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(p) == ".log" {
			paths = append(paths, p)
		}
		return nil
	})
	if len(paths) != 1 {
		t.Fatalf("want exactly one wal segment, found %v", paths)
	}
	return paths[0]
}

func TestWALTornTailTruncated(t *testing.T) {
	root := t.TempDir()
	st := openDir(t, root, SyncNever)
	st.Append([]byte("alpha"))
	st.Append([]byte("beta"))
	st.Close()

	// A crash mid-write leaves a partial record: a header promising
	// more payload than the file holds.
	p := walPath(t, root)
	f, _ := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0)
	f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad}) // len=255, short
	f.Close()

	st = openDir(t, root, SyncNever)
	recs := replayAll(t, st)
	if len(recs) != 2 || string(recs[0]) != "alpha" || string(recs[1]) != "beta" {
		t.Fatalf("torn tail not truncated cleanly: %q", recs)
	}
	// The file itself was cut back, so new appends are readable.
	st.Append([]byte("gamma"))
	if got := replayAll(t, st); len(got) != 3 || string(got[2]) != "gamma" {
		t.Fatalf("append after truncation: %q", got)
	}
	st.Close()
}

func TestWALCorruptTailTruncated(t *testing.T) {
	root := t.TempDir()
	st := openDir(t, root, SyncAlways)
	st.Append([]byte("alpha"))
	st.Append([]byte("beta"))
	st.Append([]byte("gamma"))
	st.Close()

	// Flip a byte inside the last record's payload: the CRC no longer
	// matches and open must truncate back to the last valid record.
	p := walPath(t, root)
	b, _ := os.ReadFile(p)
	b[len(b)-1] ^= 0xff
	os.WriteFile(p, b, 0o644)

	st = openDir(t, root, SyncAlways)
	recs := replayAll(t, st)
	if len(recs) != 2 || string(recs[0]) != "alpha" || string(recs[1]) != "beta" {
		t.Fatalf("corrupt tail not truncated to last valid record: %q", recs)
	}
	st.Close()
}

func TestWALSnapshotRotatesAndCovers(t *testing.T) {
	root := t.TempDir()
	st := openDir(t, root, SyncBatch)
	st.Append([]byte("old-1"))
	st.Append([]byte("old-2"))
	if err := st.SaveSnapshot([]byte("state@2")); err != nil {
		t.Fatal(err)
	}
	// The snapshot covers everything appended so far: replay is empty.
	if got := replayAll(t, st); len(got) != 0 {
		t.Fatalf("replay after snapshot: %q, want none", got)
	}
	st.Append([]byte("new-1"))
	st.Close()

	// Rotation deleted the covered segment.
	if p := walPath(t, root); filepath.Base(p) != "wal-00000002.log" {
		t.Fatalf("active segment %s, want wal-00000002.log", p)
	}

	st = openDir(t, root, SyncBatch)
	snap, ok, err := st.Snapshot()
	if err != nil || !ok || !bytes.Equal(snap, []byte("state@2")) {
		t.Fatalf("snapshot after reopen: %q ok=%v err=%v", snap, ok, err)
	}
	if got := replayAll(t, st); len(got) != 1 || string(got[0]) != "new-1" {
		t.Fatalf("replay after reopen: %q, want [new-1]", got)
	}
	st.Close()
}

func TestWALSnapshotAtomicReplace(t *testing.T) {
	root := t.TempDir()
	st := openDir(t, root, SyncAlways)
	st.SaveSnapshot([]byte("v1"))
	st.Append([]byte("delta"))
	st.SaveSnapshot([]byte("v2"))
	st.Close()

	// No temp file survives, and the new snapshot wins.
	if _, err := os.Stat(filepath.Join(root, "comp", "snap.tmp")); !os.IsNotExist(err) {
		t.Fatalf("snap.tmp left behind: %v", err)
	}
	st = openDir(t, root, SyncAlways)
	snap, ok, _ := st.Snapshot()
	if !ok || string(snap) != "v2" {
		t.Fatalf("snapshot = %q ok=%v, want v2", snap, ok)
	}
	if got := replayAll(t, st); len(got) != 0 {
		t.Fatalf("replay = %q, want none (v2 covers the delta)", got)
	}
	st.Close()
}

// A snapshot file that fails its CRC is refused, not treated as absent:
// the records it covered are gone, so the tail alone would bring the
// component up on part of its state.
func TestWALCorruptSnapshotRefused(t *testing.T) {
	root := t.TempDir()
	st := openDir(t, root, SyncAlways)
	st.Append([]byte("kept"))
	st.SaveSnapshot([]byte("state"))
	st.Close()

	sp := filepath.Join(root, "comp", "snap")
	b, _ := os.ReadFile(sp)
	b[len(b)-1] ^= 0xff
	os.WriteFile(sp, b, 0o644)

	d, err := NewDir(root, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := d.Open("comp"); err == nil {
		st.Close()
		t.Fatal("opened over a corrupt snapshot file")
	}
}

func TestMemSurvivesReopenNotReset(t *testing.T) {
	m := NewMem()
	st, _ := m.Open("a")
	st.Append([]byte("one"))
	st.SaveSnapshot([]byte("snap"))
	st.Append([]byte("two"))
	st.Close()

	st2, _ := m.Open("a")
	snap, ok, _ := st2.Snapshot()
	if !ok || string(snap) != "snap" {
		t.Fatalf("mem snapshot = %q ok=%v", snap, ok)
	}
	var recs [][]byte
	st2.Replay(func(r []byte) error { recs = append(recs, r); return nil })
	if len(recs) != 1 || string(recs[0]) != "two" {
		t.Fatalf("mem replay = %q, want [two]", recs)
	}

	m.Reset()
	st3, _ := m.Open("a")
	if _, ok, _ := st3.Snapshot(); ok {
		t.Fatal("state survived Reset")
	}
}

// A store keeps no snapshot buffer it was handed: the caller
// overwriting it after SaveSnapshot changes nothing Snapshot returns.
func TestSaveSnapshotKeepsNoBuffer(t *testing.T) {
	mem, err := NewMem().Open("comp")
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]Stable{"mem": mem, "wal": openDir(t, t.TempDir(), SyncAlways)} {
		buf := []byte("snapshot one")
		if err := st.SaveSnapshot(buf); err != nil {
			t.Fatal(err)
		}
		copy(buf, "overwritten!")
		got, ok, err := st.Snapshot()
		if err != nil || !ok || string(got) != "snapshot one" {
			t.Errorf("%s: Snapshot() = %q, %v, %v after the caller reused its buffer, want %q", name, got, ok, err, "snapshot one")
		}
		_ = st.Close()
	}
}

// A store keeps no record buffer it was handed: the caller overwriting
// it after Append changes nothing Replay yields, and once a snapshot
// has folded the tail in, Replay yields only what was appended after
// it, however the store reuses the tail's memory.
func TestAppendKeepsNoBuffer(t *testing.T) {
	mem, err := NewMem().Open("comp")
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]Stable{"mem": mem, "private": NewPrivate(), "wal": openDir(t, t.TempDir(), SyncAlways)} {
		buf := make([]byte, 0, 16)
		appendRec := func(rec string) {
			buf = append(buf[:0], rec...)
			if err := st.Append(buf); err != nil {
				t.Fatal(err)
			}
			copy(buf, "################")
		}
		check := func(when string, want ...string) {
			got := replayAll(t, st)
			if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
				t.Errorf("%s: Replay %s = %q, want %q", name, when, got, want)
			}
		}
		appendRec("rec-one")
		appendRec("rec-two")
		check("after the caller reused its buffer", "rec-one", "rec-two")
		if err := st.SaveSnapshot(bytes.Repeat([]byte("s"), 64)); err != nil { // room for the next tail
			t.Fatal(err)
		}
		appendRec("rec-3")
		appendRec("rec-four-is-longer")
		check("after a snapshot and further appends", "rec-3", "rec-four-is-longer")
		_ = st.Close()
	}
}

// A private store keeps the tail its owner serves peers from, and no
// snapshot: nothing recovers from it, so a saved snapshot's bytes would
// only be held, never read.
func TestPrivateKeepsNoSnapshot(t *testing.T) {
	st := NewPrivate()
	if err := st.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot([]byte("the whole state")); err != nil {
		t.Fatal(err)
	}
	if err := st.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if snap, ok, err := st.Snapshot(); ok || snap != nil || err != nil {
		t.Errorf("Snapshot() = %q, %v, %v, want none kept", snap, ok, err)
	}
	if got := replayAll(t, st); fmt.Sprintf("%q", got) != `["after"]` {
		t.Errorf("Replay after a snapshot = %q, want only the record appended after it", got)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"batch", SyncBatch}, {"never", SyncNever}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}
