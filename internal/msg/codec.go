package msg

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
)

// The wire codec turns envelopes into frames and back. A frame needs no
// state beyond itself: it decodes alone, whatever the connection carried
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
//     owning package writes them through a Writer;
//   - tagGob: a length and a one-shot gob encoding of the body. Every
//     body without a codec travels this way, and so does a body whose
//     codec refuses it (a []any holding a kind Writer.Value lacks), so
//     nothing registered with RegisterBody becomes unsendable.
//
// A frame with an unknown version or tag, a length the frame cannot
// back, or a byte after its last envelope is an error.
//
// Gob stays registered for every body type (RegisterBody, and
// RegisterCodec calls it too): the fallback needs it, and so do trace
// files, which gob-encode whole messages.

const frameVersion byte = 1

// Body tags reserved by the codec itself; RegisterCodec refuses them.
const (
	tagNil byte = 0
	tagGob byte = 1
)

// minEnvelope is the fewest bytes an envelope occupies: four empty
// strings, two one-byte varints and a tag.
const minEnvelope = 7

var registry sync.Map // reflect-free guard against double registration panics

// RegisterBody registers a concrete message-body type with gob, for the
// wire codec's fallback and for trace files. It is safe to call multiple
// times with the same value.
func RegisterBody(v any) {
	key := fmt.Sprintf("%T", v)
	if _, dup := registry.LoadOrStore(key, struct{}{}); dup {
		return
	}
	gob.Register(v)
}

// RegisterBasics registers the basic value types that travel inside
// interface-typed fields (TxRequest.Args, SubTx.ApplyArgs, result rows)
// with gob, for the gob fallback and store.EncodeRecord alike.
var RegisterBasics = sync.OnceFunc(func() {
	for _, v := range []any{int64(0), float64(0), "", int(0), true} {
		gob.Register(v)
	}
})

// codec is one registered body codec.
type codec struct {
	tag byte
	typ reflect.Type
	enc func(*Writer, any)
	dec func(*Reader) any
}

// codecTable is the registry, replaced whole on every registration so
// the encode and decode paths read it without a lock.
type codecTable struct {
	byType map[reflect.Type]*codec
	byTag  [256]*codec
}

var (
	codecMu sync.Mutex // serializes registrations
	codecs  atomic.Pointer[codecTable]
)

func init() { codecs.Store(&codecTable{}) }

// RegisterCodec registers the frame codec of the body type T under tag:
// enc appends a T's fields and dec reads them back in the same order. dec
// must be total over a Reader — it reads fields and builds the value,
// leaving every check to the Reader. zero only names T. The package that
// owns T registers it, from its RegisterWireTypes; registering the same
// type under the same tag again is a no-op, and anything else that
// reuses a tag or a type panics.
func RegisterCodec[T any](tag byte, zero T, enc func(*Writer, T), dec func(*Reader) T) {
	RegisterBody(zero)
	typ := reflect.TypeOf(zero)
	codecMu.Lock()
	defer codecMu.Unlock()
	old := codecs.Load()
	if c := old.byTag[tag]; c != nil && c.typ == typ {
		return
	}
	switch {
	case tag == tagNil || tag == tagGob:
		panic(fmt.Sprintf("msg: body tag %d is reserved", tag))
	case old.byTag[tag] != nil:
		panic(fmt.Sprintf("msg: body tag %d registered for %v and %v", tag, old.byTag[tag].typ, typ))
	case old.byType[typ] != nil:
		panic(fmt.Sprintf("msg: %v registered under tags %d and %d", typ, old.byType[typ].tag, tag))
	}
	c := &codec{
		tag: tag,
		typ: typ,
		enc: func(w *Writer, v any) { enc(w, v.(T)) },
		dec: func(r *Reader) any {
			v := dec(r)
			if r.err != nil {
				return nil // refusing a frame boxes nothing
			}
			return v
		},
	}
	t := &codecTable{byType: make(map[reflect.Type]*codec, len(old.byType)+1), byTag: old.byTag}
	for k, v := range old.byType {
		t.byType[k] = v
	}
	t.byType[typ], t.byTag[tag] = c, c
	codecs.Store(t)
}

// WireTag is one row of the body-codec registry.
type WireTag struct {
	Tag  byte
	Type reflect.Type
}

// WireTags lists the registered body codecs in tag order.
func WireTags() []WireTag {
	var out []WireTag
	for _, c := range codecs.Load().byType {
		out = append(out, WireTag{Tag: c.tag, Type: c.typ})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}

// gobBodyHook counts bodies encoded under the gob fallback. msg cannot
// import obs (obs imports msg), so obs binds it to its msg.gob_bodies
// counter.
var gobBodyHook func()

// CountGobBodies installs fn to be called once per body encoded under
// the gob fallback. Call it from an init function.
func CountGobBodies(fn func()) { gobBodyHook = fn }

// gobBody wraps a fallback body so gob carries its concrete type.
type gobBody struct{ Body any }

// bufPool recycles the gob fallback's scratch buffers.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooled caps the buffers returned to the pools, so one
// state-transfer frame does not pin megabytes in them.
const maxPooled = 64 << 10

func appendBody(w *Writer, body any) error {
	if body == nil {
		w.b = append(w.b, tagNil)
		return nil
	}
	if c := codecs.Load().byType[reflect.TypeOf(body)]; c != nil {
		mark := len(w.b)
		w.b = append(w.b, c.tag)
		c.enc(w, body)
		if !w.refused {
			return nil
		}
		w.b, w.refused = w.b[:mark], false
	}
	if gobBodyHook != nil {
		gobBodyHook()
	}
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	buf.Reset()
	if err := gob.NewEncoder(buf).Encode(gobBody{Body: body}); err != nil {
		return err
	}
	w.b = append(w.b, tagGob)
	w.Bytes(buf.Bytes())
	return nil
}

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooled {
		bufPool.Put(buf)
	}
}

// AppendFrame appends the frame carrying envs, in order, to dst.
func AppendFrame(dst []byte, envs []Envelope) ([]byte, error) {
	w := Writer{b: append(dst, frameVersion)}
	w.Uvarint(uint64(len(envs)))
	for i := range envs {
		e := &envs[i]
		w.Loc(e.From)
		w.Loc(e.To)
		w.Text(e.M.Hdr)
		w.Text(e.Trace)
		w.Int64(e.LC)
		w.Int64(e.Deadline)
		if err := appendBody(&w, e.M.Body); err != nil {
			return dst, fmt.Errorf("encode %s body %T: %w", e.M.Hdr, e.M.Body, err)
		}
	}
	return w.b, nil
}

// AppendBody appends one body outside a frame to dst: its tag and the
// fields its registered codec writes, or, as in a frame, the gob
// fallback's tag, length and one-shot gob encoding (counted like a
// frame's). Payloads that travel inside another body's bytes — the
// "tx|" payload, the broadcast batch value, the 2PC records — are built
// with it, each behind its owner's mark.
func AppendBody(dst []byte, body any) ([]byte, error) {
	w := Writer{b: dst}
	if err := appendBody(&w, body); err != nil {
		return dst, fmt.Errorf("encode body %T: %w", body, err)
	}
	return w.b, nil
}

// DecodeBody reverses AppendBody: b must hold exactly one body of type
// T, and anything else — an unknown tag, a length b cannot back, a
// trailing byte, a body of another type — is an error, never a panic.
// The body never aliases b.
func DecodeBody[T any](b []byte) (T, error) {
	var zero T
	r := Reader{b: b}
	body := readBody(&r, codecs.Load())
	if r.err != nil {
		return zero, r.err
	}
	if len(r.b) != 0 {
		return zero, errTrailing
	}
	v, ok := body.(T)
	if !ok {
		return zero, errBodyType
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
	r := Reader{b: b[1:]}
	n := r.Count(minEnvelope)
	if r.err != nil || n == 0 {
		return nil, r.err
	}
	t := codecs.Load()
	envs := make([]Envelope, n)
	for i := range envs {
		e := &envs[i]
		e.From = r.Loc()
		e.To = r.Loc()
		e.M.Hdr = r.Text()
		e.Trace = r.Text()
		e.LC = r.Int64()
		e.Deadline = r.Int64()
		e.M.Body = readBody(&r, t)
		if r.err != nil {
			return nil, r.err
		}
	}
	if len(r.b) != 0 {
		return nil, errTrailing
	}
	return envs, nil
}

func readBody(r *Reader, t *codecTable) any {
	switch tag := r.Byte(); tag {
	case tagNil:
		return nil
	case tagGob:
		return readGob(r, r.view())
	default:
		if t.byTag[tag] == nil {
			r.fail(errTag)
			return nil
		}
		return t.byTag[tag].dec(r)
	}
}

// readGob decodes a fallback body. gob can panic on malformed type
// descriptors, so the decode runs under a recover guard, and the body
// must use up its bytes exactly.
func readGob(r *Reader, p []byte) (body any) {
	if r.err != nil {
		return nil
	}
	defer func() {
		if e := recover(); e != nil {
			r.fail(fmt.Errorf("msg: malformed gob body: %v", e))
			body = nil
		}
	}()
	src := bytes.NewReader(p)
	var gb gobBody
	if err := gob.NewDecoder(src).Decode(&gb); err != nil {
		r.fail(fmt.Errorf("msg: gob body: %w", err))
		return nil
	}
	if src.Len() != 0 {
		r.fail(errTrailing)
		return nil
	}
	return gb.Body
}

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
