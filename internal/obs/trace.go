package obs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"shadowdb/internal/gpm"
	"shadowdb/internal/msg"
)

// Causal trace events. Every layer of the replication stack emits the
// same fixed schema — location, layer, message kind, slot/ballot, span —
// into a fixed-size ring buffer, so a transaction can be followed from
// client submit through broadcast propose, consensus decide, replica
// execute, and reply. The discrete-event simulator emits the identical
// schema with virtual timestamps, making DES runs and real TCP runs
// diffable. A recorded trace — live or downloaded — steps the same
// invariants the bounded verifier explores (internal/obs/dist), a
// Derecho-style runtime checker.

// The layers an event can originate from.
const (
	LayerRuntime   = "runtime"
	LayerNetwork   = "network"
	LayerBroadcast = "broadcast"
	LayerConsensus = "consensus"
	LayerCore      = "core"
	LayerDES       = "des"
	LayerFault     = "fault"
)

// NoField marks an absent Slot or Ballot.
const NoField int64 = -1

// Event is one structured trace record.
type Event struct {
	// Seq is the record's position in its buffer (monotone per Obs).
	Seq int64 `json:"seq"`
	// At is the timestamp in nanoseconds: wall-clock UnixNano by default,
	// virtual time under the simulator's clock.
	At int64 `json:"at"`
	// Loc is the emitting location.
	Loc msg.Loc `json:"loc"`
	// Layer names the module boundary the event crossed.
	Layer string `json:"layer"`
	// Kind classifies the event within its layer ("step", "bc.propose",
	// "px.decide", "pbr.elected", ...).
	Kind string `json:"kind"`
	// Hdr is the message header involved, if any.
	Hdr string `json:"hdr,omitempty"`
	// Slot is the consensus instance / broadcast slot (NoField if n/a).
	Slot int64 `json:"slot"`
	// Ballot is the consensus ballot / round number (NoField if n/a).
	Ballot int64 `json:"ballot"`
	// Span identifies the client message or transaction the event belongs
	// to ("client/seq"), linking the stages of one submission.
	Span string `json:"span,omitempty"`
	// Trace is the per-request trace ID propagated hop-by-hop through
	// message envelopes: every event caused (transitively) by one client
	// request carries that request's ID, even when the triggering message
	// body no longer names the request (consensus rounds, batches).
	Trace string `json:"trace,omitempty"`
	// LC is the node's Lamport clock at the event (0 when unknown).
	// Events from different nodes sort causally on it: if event a
	// happened-before event b, a.LC < b.LC.
	LC int64 `json:"lc,omitempty"`
	// Note carries free-form detail (batch sizes, peer names).
	Note string `json:"note,omitempty"`
	// M is the full delivered message, when the event records a process
	// step; the invariants (internal/obs/dist) step over these. Nil otherwise.
	M *msg.Msg `json:"-"`
	// Outs are the outputs of the step, when M is set.
	Outs []msg.Directive `json:"-"`
}

// String renders the event compactly for logs and the JSON endpoint.
func (e Event) String() string {
	s := fmt.Sprintf("%d %s/%s %s", e.At, e.Layer, e.Loc, e.Kind)
	if e.Hdr != "" {
		s += " " + e.Hdr
	}
	if e.Slot != NoField {
		s += fmt.Sprintf(" slot=%d", e.Slot)
	}
	if e.Ballot != NoField {
		s += fmt.Sprintf(" ballot=%d", e.Ballot)
	}
	if e.Span != "" {
		s += " span=" + e.Span
	}
	if e.Trace != "" && e.Trace != e.Span {
		s += " trace=" + e.Trace
	}
	if e.LC != 0 {
		s += fmt.Sprintf(" lc=%d", e.LC)
	}
	if e.Note != "" {
		s += " " + e.Note
	}
	return s
}

// Ev constructs an Event for loc with absent Slot/Ballot — the usual
// starting point for metrics-adjacent records (dials, elections,
// snapshots) that have no consensus coordinates.
func Ev(loc msg.Loc, layer, kind string) Event {
	return Event{Loc: loc, Layer: layer, Kind: kind, Slot: NoField, Ballot: NoField}
}

// ----------------------------------------------------------- extractors --

// Fields are the protocol-specific coordinates of a message, extracted by
// the protocol package that owns the message type. obs sits below the
// protocol packages, so they register extractors instead of obs importing
// them.
type Fields struct {
	Slot   int64
	Ballot int64
	Span   string
	Kind   string
}

// NoFields returns a Fields with every coordinate absent.
func NoFields() Fields { return Fields{Slot: NoField, Ballot: NoField} }

// Extractor recognizes a message body and returns its coordinates.
type Extractor func(hdr string, body any) (Fields, bool)

var extractors []Extractor

// RegisterExtractor adds a message-coordinate extractor; protocol
// packages call this from init, before any goroutine runs, so Extract
// reads the list without a lock.
func RegisterExtractor(fn Extractor) {
	extractors = append(extractors, fn)
}

// Extract runs the registered extractors over a message.
func Extract(hdr string, body any) Fields {
	for _, fn := range extractors {
		if f, ok := fn(hdr, body); ok {
			if f.Slot == 0 && f.Ballot == 0 && f.Kind == "" && f.Span == "" {
				// Guard against zero-valued Fields from sloppy extractors.
				f.Slot, f.Ballot = NoField, NoField
			}
			return f
		}
	}
	return NoFields()
}

// ----------------------------------------------------------- conversion --

// MergeCausal combines per-node trace downloads into one causally ordered
// trace. When every event carries a Lamport stamp (LC > 0) the merge
// orders by LC (ties: timestamp, location, ring sequence) — a linear
// extension of the happened-before relation, so causally related events
// land in causal order regardless of clock skew between nodes. Traces
// with unstamped events are merged by timestamp, then ring sequence
// (mixing LC-major and At-major comparisons is not transitive, so the
// fallback is all-or-nothing).
func MergeCausal(traces ...[]Event) []Event {
	var out []Event
	stamped := true
	for _, t := range traces {
		for _, e := range t {
			if e.LC <= 0 {
				stamped = false
			}
		}
		out = append(out, t...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if stamped && a.LC != b.LC {
			return a.LC < b.LC
		}
		if a.At != b.At {
			return a.At < b.At
		}
		if stamped && a.Loc != b.Loc {
			return a.Loc < b.Loc
		}
		return a.Seq < b.Seq
	})
	return out
}

// RingGap inspects one ring buffer's download for evicted events. Seq is
// assigned contiguously from zero per Obs, so a trace whose smallest Seq
// is s lost its first s events to ring overflow; internal discontinuities
// (which a correct ring never produces) count as missing too. It returns
// the number of missing events.
func RingGap(events []Event) int64 {
	if len(events) == 0 {
		return 0
	}
	min, max := events[0].Seq, events[0].Seq
	for _, e := range events[1:] {
		if e.Seq < min {
			min = e.Seq
		}
		if e.Seq > max {
			max = e.Seq
		}
	}
	return min + (max - min + 1 - int64(len(events)))
}

// FromGPM converts a reference-runner trace into obs events. It lets
// simulated or seeded runs be checked by the same trace consumers (the
// dist checker and collector, diffing) as live recordings. The +1 keeps
// the first entry off timestamp zero, which Record would restamp.
func FromGPM(trace []gpm.TraceEntry) []Event {
	out := make([]Event, len(trace))
	for i, e := range trace {
		m := e.In
		f := Extract(m.Hdr, m.Body)
		kind := f.Kind
		if kind == "" {
			kind = "step"
		}
		out[i] = Event{
			Seq: int64(i), At: int64(e.At) + 1, Loc: e.Loc, Layer: LayerRuntime,
			Kind: kind, Hdr: m.Hdr, Slot: f.Slot, Ballot: f.Ballot, Span: f.Span,
			M: &m, Outs: e.Outs,
		}
	}
	return out
}

// ------------------------------------------------------------- encoding --

// A trace file — a /trace download, a bundle's trace.bin — is
// traceMagic followed by its events, each written with the wire codec's
// Writer: the event's fields in declaration order, then its message and
// its outputs, whose bodies are written by their registered codecs
// (msg.Writer.Body). A body without a codec fails the encoding, so a
// trace that decodes holds every message its node stepped.
const traceMagic = "TRC1"

var errTraceFormat = errors.New("not a trace in the current format")

// EncodeTrace writes events as a trace file. Each message body's codec
// is registered by its owning package's init, so a body of a package the
// binary links encodes.
func EncodeTrace(w io.Writer, events []Event) error {
	b, err := msg.Append([]byte(traceMagic), func(mw *msg.Writer) {
		for i := range events {
			appendEvent(mw, &events[i])
		}
	})
	if err == nil {
		_, err = w.Write(b)
	}
	if err != nil {
		return fmt.Errorf("obs: encode trace: %w", err)
	}
	return nil
}

// DecodeTrace reverses EncodeTrace.
func DecodeTrace(r io.Reader) ([]Event, error) {
	b, err := io.ReadAll(r)
	if err == nil && !bytes.HasPrefix(b, []byte(traceMagic)) {
		err = errTraceFormat
	}
	var events []Event
	if err == nil {
		err = msg.Read(b[len(traceMagic):], func(mr *msg.Reader) {
			for mr.More() {
				events = append(events, readEvent(mr))
			}
		})
	}
	if err != nil {
		return nil, fmt.Errorf("obs: decode trace: %w", err)
	}
	return events, nil
}

func appendEvent(w *msg.Writer, e *Event) {
	w.Int64(e.Seq)
	w.Int64(e.At)
	w.Loc(e.Loc)
	w.Text(e.Layer)
	w.Text(e.Kind)
	w.Text(e.Hdr)
	w.Int64(e.Slot)
	w.Int64(e.Ballot)
	w.Text(e.Span)
	w.Text(e.Trace)
	w.Int64(e.LC)
	w.Text(e.Note)
	w.Bool(e.M != nil)
	if e.M != nil {
		w.Text(e.M.Hdr)
		w.Body(e.M.Body)
	}
	w.Uvarint(uint64(len(e.Outs)))
	for _, d := range e.Outs {
		w.Int64(int64(d.Delay))
		w.Loc(d.Dest)
		w.Text(d.M.Hdr)
		w.Body(d.M.Body)
	}
}

// minDirective is the fewest bytes an output occupies: a delay, two
// empty strings and a nil body.
const minDirective = 4

func readEvent(r *msg.Reader) Event {
	e := Event{Seq: r.Int64(), At: r.Int64(), Loc: r.Loc(), Layer: r.Text(), Kind: r.Text(), Hdr: r.Text(),
		Slot: r.Int64(), Ballot: r.Int64(), Span: r.Text(), Trace: r.Text(), LC: r.Int64(), Note: r.Text()}
	if r.Bool() {
		e.M = &msg.Msg{Hdr: r.Text(), Body: r.Body()}
	}
	if n := r.Count(minDirective); n > 0 {
		e.Outs = make([]msg.Directive, n)
		for i := range e.Outs {
			e.Outs[i] = msg.Directive{Delay: time.Duration(r.Int64()), Dest: r.Loc(), M: msg.Msg{Hdr: r.Text(), Body: r.Body()}}
		}
	}
	return e
}
