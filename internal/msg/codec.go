package msg

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
)

// The wire codec is the one encoding of every byte the system writes:
// frames on the wire, journal records and snapshots on disk, and trace
// files. Each body type has a codec its owning package registers from
// init, so nothing is encoded by reflection, and importing a package is
// all it takes to encode and decode its bodies. A frame needs no state
// beyond itself: it decodes alone, whatever the connection carried
// before it, so a hostile peer cannot grow a type table and the fuzzers
// and the flight recorder can read any frame by itself.
//
//	frame    = version count envelope*
//	envelope = From To Hdr Trace LC Deadline tag body
//
// The version is one byte (frameVersion), the count and lengths are
// uvarints, From/To/Hdr/Trace are length-prefixed strings, LC and
// Deadline signed varints, and the tag one byte naming how the body is
// encoded:
//
//   - tagNil: no body (Msg.Body == nil), nothing follows;
//   - a tag registered with RegisterCodec: the body's own fields, as its
//     owning package writes them through a Writer.
//
// Tag 1 carried a gob-encoded body in an earlier format; it stays
// reserved, so such a frame is refused as an unknown tag. A body with no
// codec, or one holding a value Writer.Value has no kind for, is an
// encoding error naming its type. A frame with an unknown version or
// tag, a length the frame cannot back, or a byte after its last
// envelope is an error.

const frameVersion byte = 1

// Body tags reserved by the codec itself; RegisterCodec refuses them.
const (
	tagNil      byte = 0
	tagReserved byte = 1 // the retired gob fallback
)

// minEnvelope is the fewest bytes an envelope occupies: four empty
// strings, two one-byte varints and a tag.
const minEnvelope = 7

// codec is one registered body codec.
type codec struct {
	tag byte
	typ reflect.Type
	enc func(*Writer, any)
	dec func(*Reader) any
}

// codecTable is a body-codec registry. The process's table, codecs, is
// filled by the owning packages' init functions, before any goroutine
// runs, so the encode and decode paths read it without a lock.
type codecTable struct {
	byType map[reflect.Type]*codec
	byTag  [256]*codec
}

var codecs codecTable

// RegisterCodec registers the frame codec of the body type T under tag:
// enc appends a T's fields and dec reads them back in the same order. dec
// must be total over a Reader — it reads fields and builds the value,
// leaving every check to the Reader. zero only names T. The package that
// owns T registers it from its init function, and nowhere else: a
// payload's bytes then never depend on which packages a caller
// registered. A reserved tag, or a tag or a type registered before,
// panics.
func RegisterCodec[T any](tag byte, zero T, enc func(*Writer, T), dec func(*Reader) T) {
	codecs.add(newCodec(tag, zero, enc, dec))
}

func newCodec[T any](tag byte, zero T, enc func(*Writer, T), dec func(*Reader) T) *codec {
	return &codec{
		tag: tag,
		typ: reflect.TypeOf(zero),
		enc: func(w *Writer, v any) { enc(w, v.(T)) },
		dec: func(r *Reader) any {
			v := dec(r)
			if r.err != nil {
				return nil // refusing a frame boxes nothing
			}
			return v
		},
	}
}

func (t *codecTable) add(c *codec) {
	switch {
	case c.tag == tagNil || c.tag == tagReserved:
		panic(fmt.Sprintf("msg: body tag %d is reserved", c.tag))
	case t.byTag[c.tag] != nil:
		panic(fmt.Sprintf("msg: body tag %d registered for %v and %v", c.tag, t.byTag[c.tag].typ, c.typ))
	case t.byType[c.typ] != nil:
		panic(fmt.Sprintf("msg: %v registered under tags %d and %d", c.typ, t.byType[c.typ].tag, c.tag))
	}
	if t.byType == nil {
		t.byType = make(map[reflect.Type]*codec)
	}
	t.byType[c.typ], t.byTag[c.tag] = c, c
}

// TagOf returns the tag T's codec is registered under, the first byte
// of every T that AppendBody writes. T must have a codec.
func TagOf[T any]() byte { return codecs.byType[reflect.TypeFor[T]()].tag }

// PayloadTag returns the tag of the body b holds, which names its kind,
// or 0 (no body) when b is empty.
func PayloadTag(b []byte) byte {
	if len(b) == 0 {
		return tagNil
	}
	return b[0]
}

// WireTag is one row of the body-codec registry.
type WireTag struct {
	Tag  byte
	Type reflect.Type
}

// WireTags lists the registered body codecs in tag order.
func WireTags() []WireTag {
	var out []WireTag
	for _, c := range codecs.byType {
		out = append(out, WireTag{Tag: c.tag, Type: c.typ})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}

// maxPooled caps the buffers returned to the pools, so one
// state-transfer frame does not pin megabytes in them.
const maxPooled = 64 << 10

// Body appends one body: its tag and the fields its registered codec
// writes, or tagNil for a nil body. A body with no codec, or whose codec
// meets a value without a kind, latches an error naming it.
func (w *Writer) Body(body any) {
	if body == nil {
		w.b = append(w.b, tagNil)
		return
	}
	c := codecs.byType[reflect.TypeOf(body)]
	if c == nil {
		w.fail(fmt.Errorf("msg: no codec for body type %T", body))
		return
	}
	w.b = append(w.b, c.tag)
	c.enc(w, body)
}

// writerPool and readerPool hold the Writers and Readers the entry
// points below lend to the codecs: the codecs are function values, so a
// Writer or Reader they receive escapes, and a pooled one is allocated
// once rather than per frame or per record.
var (
	writerPool = sync.Pool{New: func() any { return new(Writer) }}
	readerPool = sync.Pool{New: func() any { return new(Reader) }}
)

// Append appends what fn writes through a Writer to dst, or returns dst
// and the first error fn's writes latched. Journal snapshots, the
// records that are not a single body, and trace files are written with
// it.
func Append(dst []byte, fn func(*Writer)) ([]byte, error) {
	w := writerPool.Get().(*Writer)
	w.b, w.err = dst, nil
	fn(w)
	b, err := w.b, w.err
	*w = Writer{}
	writerPool.Put(w)
	if err != nil {
		return dst, err
	}
	return b, nil
}

// Read runs fn over b, which fn's reads must use up exactly: anything
// else — a length b cannot back, an unknown tag or kind, a trailing
// byte — is an error, never a panic. Append's output is read with it.
func Read(b []byte, fn func(*Reader)) error {
	r := readerPool.Get().(*Reader)
	r.b, r.err = b, nil
	fn(r)
	err := r.err
	if err == nil && len(r.b) != 0 {
		err = errTrailing
	}
	*r = Reader{}
	readerPool.Put(r)
	return err
}

// AppendFrame appends the frame carrying envs, in order, to dst.
func AppendFrame(dst []byte, envs []Envelope) ([]byte, error) {
	var failed *Envelope
	b, err := Append(append(dst, frameVersion), func(w *Writer) {
		w.Uvarint(uint64(len(envs)))
		for i := range envs {
			e := &envs[i]
			w.Loc(e.From)
			w.Loc(e.To)
			w.Text(e.M.Hdr)
			w.Text(e.Trace)
			w.Int64(e.LC)
			w.Int64(e.Deadline)
			if w.Body(e.M.Body); w.err != nil {
				failed = e
				return
			}
		}
	})
	if err != nil {
		return dst, fmt.Errorf("encode %s body %T: %w", failed.M.Hdr, failed.M.Body, err)
	}
	return b, nil
}

// AppendBody appends one body outside a frame to dst: its tag and the
// fields its registered codec writes. Payloads that travel inside
// another body's bytes — what the total order carries, told apart by
// that tag alone, and the broadcast batch a consensus value holds — and
// the journal records are built with it.
func AppendBody(dst []byte, body any) ([]byte, error) {
	b, err := Append(dst, func(w *Writer) { w.Body(body) })
	if err != nil {
		return dst, fmt.Errorf("encode body %T: %w", body, err)
	}
	return b, nil
}

// DecodeBody reverses AppendBody: b must hold exactly one body of type
// T, and anything else — an unknown tag, a length b cannot back, a
// trailing byte, a body of another type — is an error, never a panic.
// The body never aliases b.
func DecodeBody[T any](b []byte) (T, error) {
	var body any
	err := Read(b, func(r *Reader) { body = r.Body() })
	v, ok := body.(T)
	if err == nil && !ok {
		err = errBodyType
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

// framePool recycles the scratch arrays Encode and EncodeBatch build
// frames in.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// encodeFrame builds a frame in a pooled array and returns an exact copy.
func encodeFrame(envs []Envelope) ([]byte, error) {
	p := framePool.Get().(*[]byte)
	b, err := AppendFrame((*p)[:0], envs)
	var out []byte
	if err == nil {
		out = append([]byte(nil), b...)
	}
	if cap(b) <= maxPooled {
		*p = b
		framePool.Put(p)
	}
	return out, err
}

// Encode serializes one envelope into a wire frame.
func Encode(e Envelope) ([]byte, error) { return encodeFrame([]Envelope{e}) }

// EncodeBatch serializes several envelopes into one wire frame. The
// caller groups envelopes by destination; the frame is decoded back into
// the individual envelopes by DecodeFrame, so batching is invisible above
// the transport.
func EncodeBatch(envs []Envelope) ([]byte, error) { return encodeFrame(envs) }

// Decode deserializes a single-envelope frame produced by Encode.
func Decode(b []byte) (Envelope, error) {
	envs, err := DecodeFrame(b)
	if err != nil {
		return Envelope{}, err
	}
	if len(envs) != 1 {
		return Envelope{}, fmt.Errorf("decode envelope: frame carries %d envelopes", len(envs))
	}
	return envs[0], nil
}

// DecodeFrame deserializes a frame produced by Encode, EncodeBatch or
// AppendFrame into its envelopes, in send order. Malformed input returns
// an error, never a panic, and the envelopes never alias b.
func DecodeFrame(b []byte) ([]Envelope, error) {
	if len(b) == 0 {
		return nil, errTruncated
	}
	if b[0] != frameVersion {
		return nil, errVersion
	}
	var envs []Envelope
	err := Read(b[1:], func(r *Reader) {
		n := r.Count(minEnvelope)
		if r.err != nil || n == 0 {
			return
		}
		envs = make([]Envelope, n)
		for i := range envs {
			e := &envs[i]
			e.From = r.Loc()
			e.To = r.Loc()
			e.M.Hdr = r.Text()
			e.Trace = r.Text()
			e.LC = r.Int64()
			e.Deadline = r.Int64()
			if e.M.Body = r.Body(); r.err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return envs, nil
}

// Body reads one body written by Writer.Body.
func (r *Reader) Body() any {
	tag := r.Byte()
	if tag == tagNil {
		return nil
	}
	c := codecs.byTag[tag]
	if c == nil {
		r.fail(errTag)
		return nil
	}
	return c.dec(r)
}

// errBodyType is DecodeBody's refusal of a body of another type.
var errBodyType = errors.New("msg: body of another type")

// Envelope is what actually travels on the wire: the message plus its
// source and destination locations, so receivers can route and reply.
// Trace and LC are the causal-correlation coordinates of the send: Trace
// identifies the client request whose handling caused this message (empty
// until a traced hop derives one), and LC is the sender's Lamport clock
// at the send event. Each costs one byte of the frame when empty or zero.
type Envelope struct {
	From Loc
	To   Loc
	M    Msg
	// Trace is the per-request trace ID the send belongs to ("" if the
	// causal chain has not passed a traced request yet).
	Trace string
	// LC is the sender's Lamport clock at the send event (0 when the
	// sender keeps no clock).
	LC int64
	// Deadline is the absolute deadline (nanoseconds on the deployment
	// clock, 0 = none) of the request this send serves, extracted from
	// the body via RegisterDeadline when the host stamps the envelope.
	// Transports may drop an expired envelope instead of delivering it:
	// work that can no longer meet its deadline should not consume
	// receive, decode, or apply capacity. Like LC it costs one byte of
	// the frame when zero.
	Deadline int64
}
