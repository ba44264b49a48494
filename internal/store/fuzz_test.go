package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenWAL hands Dir.Open a component directory nobody wrote: one
// segment of arbitrary bytes and, when withSnap, a snapshot file of
// arbitrary bytes. Open may refuse the directory (a snapshot file that
// is not one intact record); it must not panic, what it replays must be
// a checksum-clean prefix of the segment, and a record appended after
// the open must land behind that prefix, not behind the torn tail.
func FuzzOpenWAL(f *testing.F) {
	one, two := appendFrame(nil, []byte("first")), appendFrame(nil, []byte("second record"))
	whole := append(bytes.Clone(one), two...)
	flipped := bytes.Clone(whole)
	flipped[len(one)+recHeader] ^= 0x01
	snap := appendFrame(nil, append(make([]byte, 8), "state"...)) // covers through segment 0
	f.Add(whole, []byte{}, false)
	f.Add(whole[:len(whole)-3], []byte{}, false)                             // torn payload
	f.Add(whole[:len(one)+5], []byte{}, false)                               // torn header
	f.Add(flipped, []byte{}, false)                                          // CRC mismatch
	f.Add(append(bytes.Clone(one), 0xff, 0xff, 0xff, 0x7f), []byte{}, false) // impossible length
	f.Add(whole, snap, true)
	f.Add(whole, snap[:len(snap)-1], true)
	f.Add([]byte{}, []byte{}, true)

	f.Fuzz(func(t *testing.T, seg, snap []byte, withSnap bool) {
		root := t.TempDir()
		dir := filepath.Join(root, "comp")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if withSnap {
			if err := os.WriteFile(filepath.Join(dir, "snap"), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		d, err := NewDir(root, SyncNever)
		if err != nil {
			t.Fatal(err)
		}
		st, err := d.Open("comp")
		if err != nil {
			if !withSnap {
				t.Fatalf("refused a directory with no snapshot file: %v", err)
			}
			return
		}
		got := replayAll(t, st)
		var framed []byte
		for _, r := range got {
			framed = appendFrame(framed, r)
		}
		if !bytes.HasPrefix(seg, framed) {
			t.Fatalf("replayed %d records that are not a prefix of the segment", len(got))
		}
		if err := st.Append([]byte("after")); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err = d.Open("comp"); err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		again := replayAll(t, st)
		if len(again) != len(got)+1 || !bytes.Equal(again[len(got)], []byte("after")) {
			t.Fatalf("replayed %d records after appending one behind %d", len(again), len(got))
		}
	})
}
