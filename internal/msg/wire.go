package msg

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Writer and Reader are the field-level halves of the frame codec: a body
// codec registered with RegisterCodec appends its fields through a Writer
// and reads them back, in the same order, through a Reader.
//
// Integers are varints (signed ones zig-zag), a bool is one byte 0 or 1,
// a float64 eight little-endian bytes, and a string or byte slice a
// length and its bytes. A slice is a count and its elements; an empty
// slice decodes as nil. A map is written as its entries in key order
// (SortedKeys), so one value has one encoding. A value of a []any
// (request arguments, result rows) is a kind byte and its encoding: nil,
// int64, int, float64, string and bool have a kind, and an int32 or a
// float32 is widened to int64 or float64 as the SQL layer widens it
// (sqldb's argument normalisation). Any other value is refused with an
// error naming its type.

// Value kinds inside a []any.
const (
	kindNil byte = iota
	kindInt64
	kindInt
	kindFloat64
	kindString
	kindFalse
	kindTrue
)

// Writer appends a body's fields to a frame, a record or a file. Like a
// Reader it keeps the first error it hits (a body without a codec, a
// value without a kind); Append returns it.
type Writer struct {
	b   []byte
	err error
}

func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }

// Int64 appends a signed varint.
func (w *Writer) Int64(v int64) { w.b = binary.AppendVarint(w.b, v) }

// Int appends an int as a signed varint.
func (w *Writer) Int(v int) { w.Int64(int64(v)) }

// Byte appends one byte.
func (w *Writer) Byte(v byte) { w.b = append(w.b, v) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

// Float64 appends the eight bytes of a float64.
func (w *Writer) Float64(v float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
}

// Text appends a length-prefixed string.
func (w *Writer) Text(s string) { w.b = append(binary.AppendUvarint(w.b, uint64(len(s))), s...) }

// Loc appends a location.
func (w *Writer) Loc(l Loc) { w.Text(string(l)) }

// Bytes appends a length-prefixed byte slice.
func (w *Writer) Bytes(p []byte) { w.b = append(binary.AppendUvarint(w.b, uint64(len(p))), p...) }

// Texts appends a string slice.
func (w *Writer) Texts(ss []string) {
	w.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.Text(s)
	}
}

// Locs appends a location slice.
func (w *Writer) Locs(ls []Loc) {
	w.Uvarint(uint64(len(ls)))
	for _, l := range ls {
		w.Loc(l)
	}
}

// Value appends one dynamically typed value, or latches the error
// CheckValues reports for it.
func (w *Writer) Value(v any) {
	switch x := v.(type) {
	case nil:
		w.b = append(w.b, kindNil)
	case int64:
		w.b = binary.AppendVarint(append(w.b, kindInt64), x)
	case int32:
		w.b = binary.AppendVarint(append(w.b, kindInt64), int64(x))
	case float32:
		w.b = append(w.b, kindFloat64)
		w.Float64(float64(x))
	case int:
		w.b = binary.AppendVarint(append(w.b, kindInt), int64(x))
	case float64:
		w.b = append(w.b, kindFloat64)
		w.Float64(x)
	case string:
		w.b = append(w.b, kindString)
		w.Text(x)
	case bool:
		if x {
			w.b = append(w.b, kindTrue)
		} else {
			w.b = append(w.b, kindFalse)
		}
	default:
		w.fail(noKind(v))
	}
}

// CheckValues reports the first of vs that Writer.Value cannot write,
// naming its type, so a caller can refuse a request before sending it.
func CheckValues(vs []any) error {
	for _, v := range vs {
		switch v.(type) {
		case nil, int64, int, float64, string, bool, int32, float32:
		default:
			return noKind(v)
		}
	}
	return nil
}

func noKind(v any) error { return fmt.Errorf("msg: a value of type %T has no wire kind", v) }

// SortedKeys returns m's keys in ascending order: the order a codec
// writes a map's entries in.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Values appends a []any.
func (w *Writer) Values(vs []any) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Value(v)
	}
}

// The errors a Reader latches. They are fixed values, so a hostile frame
// costs no allocation to refuse.
var (
	errTruncated = errors.New("msg: frame truncated")
	errVarint    = errors.New("msg: truncated or overlong varint")
	errLength    = errors.New("msg: length exceeds frame")
	errBool      = errors.New("msg: malformed bool")
	errKind      = errors.New("msg: unknown value kind")
	errTag       = errors.New("msg: unknown body tag")
	errTrailing  = errors.New("msg: trailing bytes after frame")
	errVersion   = errors.New("msg: unknown frame version")
)

// Reader consumes a frame. It keeps the first error it hits, after which
// every read returns a zero value, so a decoder is straight-line code
// that the frame decoder checks once per envelope. Every length and count
// is checked against the bytes that remain before anything is allocated.
type Reader struct {
	b   []byte
	err error
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// More reports whether bytes remain to be read and no error has been
// hit: a list written without a count (a snapshot's bodies, a trace
// file's events) is read while it holds.
func (r *Reader) More() bool { return r.err == nil && len(r.b) > 0 }

// Fail latches err, as a failed read does: a decoder refuses a value
// that reads cleanly but is not one its writer writes.
func (r *Reader) Fail(err error) { r.fail(err) }

// Uvarint reads an unsigned varint. A varint must be minimal, with no
// trailing 0x00 byte, so a value has one encoding and a decoded body
// re-encodes to exactly the bytes it was read from.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.fail(errVarint)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int64 reads a signed varint, minimal as Uvarint's.
func (r *Reader) Int64() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.fail(errVarint)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.Int64()) }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.b) == 0 {
		r.fail(errTruncated)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Bool reads a bool; a byte other than 0 or 1 is an error.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail(errBool)
	return false
}

// Float64 reads the eight bytes of a float64.
func (r *Reader) Float64() float64 {
	if len(r.b) < 8 {
		r.fail(errTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// Count reads a length or element count that the rest of the frame must
// be able to back, each element occupying at least min (≥ 1) bytes.
func (r *Reader) Count(min int) int {
	v := r.Uvarint()
	if v > uint64(len(r.b)/min) {
		r.fail(errLength)
		return 0
	}
	return int(v)
}

// view reads a length and returns that many bytes without copying them.
func (r *Reader) view() []byte {
	n := r.Count(1)
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// Text reads a length-prefixed string.
func (r *Reader) Text() string { return string(r.view()) }

// Loc reads a location.
func (r *Reader) Loc() Loc { return Loc(r.Text()) }

// Bytes reads a length-prefixed byte slice into fresh memory (nil when
// empty): the decoded body never aliases the frame.
func (r *Reader) Bytes() []byte {
	p := r.view()
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

// Texts reads a string slice.
func (r *Reader) Texts() []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.Text()
	}
	return ss
}

// Locs reads a location slice.
func (r *Reader) Locs() []Loc {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	ls := make([]Loc, n)
	for i := range ls {
		ls[i] = r.Loc()
	}
	return ls
}

// Value reads one dynamically typed value.
func (r *Reader) Value() any {
	switch r.Byte() {
	case kindNil:
		return nil
	case kindInt64:
		return r.Int64()
	case kindInt:
		return r.Int()
	case kindFloat64:
		return r.Float64()
	case kindString:
		return r.Text()
	case kindFalse:
		return false
	case kindTrue:
		return true
	}
	r.fail(errKind)
	return nil
}

// Values reads a []any.
func (r *Reader) Values() []any {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	vs := make([]any, n)
	for i := range vs {
		vs[i] = r.Value()
	}
	return vs
}
