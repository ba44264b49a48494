//go:build !race

package store

import "testing"

// A durable append frames its record into a buffer the WAL keeps, so
// once that buffer has grown to the record's size an Append allocates
// nothing. (The race detector adds allocations of its own, so this runs
// without it.)
func TestAppendAllocs(t *testing.T) {
	st := openDir(t, t.TempDir(), SyncNever)
	defer func() { _ = st.Close() }()
	rec := make([]byte, 100)
	if err := st.Append(rec); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = st.Append(rec) }); n != 0 {
		t.Errorf("Append allocated %.0f times, want 0", n)
	}
}
