package dist

import (
	"sort"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/consensus/synod"
	"shadowdb/internal/consensus/twothird"
	"shadowdb/internal/core"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
)

// Span is one client request's reconstructed path through the stack. All
// timestamps are trace-clock nanoseconds (wall or virtual, matching the
// recording Obs); zero means the stage was not observed in the trace.
type Span struct {
	// ID is the request's span key ("client/seq").
	ID string `json:"id"`
	// Slot is the broadcast slot that ordered the request (-1 unknown).
	Slot int64 `json:"slot"`
	// Submit is when the request first entered the system (its Bcast or
	// TxRequest arriving at a service node or replica).
	Submit int64 `json:"submit"`
	// Propose is when the slot carrying the request was first proposed to
	// consensus.
	Propose int64 `json:"propose"`
	// Decide is when consensus first decided that slot.
	Decide int64 `json:"decide"`
	// Deliver is when the ordered batch first reached a subscriber.
	Deliver int64 `json:"deliver"`
	// Reply is when a replica first emitted (or the client first
	// received) the request's TxResult.
	Reply int64 `json:"reply"`
}

// Breakdown is a span's per-segment latency split.
type Breakdown struct {
	// Broadcast is submit → consensus proposal (forwarding, batching).
	Broadcast time.Duration `json:"broadcast"`
	// Consensus is proposal → decide (the ordering protocol itself).
	Consensus time.Duration `json:"consensus"`
	// Apply is ordered delivery → reply (database execution).
	Apply time.Duration `json:"apply"`
	// Total is submit → reply.
	Total time.Duration `json:"total"`
	// Complete reports whether every stage was observed in order; the
	// segment values of an incomplete breakdown are meaningless.
	Complete bool `json:"complete"`
}

// Breakdown splits the span into its segments.
func (s Span) Breakdown() Breakdown {
	b := Breakdown{
		Broadcast: time.Duration(s.Propose - s.Submit),
		Consensus: time.Duration(s.Decide - s.Propose),
		Apply:     time.Duration(s.Reply - s.Deliver),
		Total:     time.Duration(s.Reply - s.Submit),
	}
	b.Complete = s.Submit > 0 && s.Propose >= s.Submit && s.Decide >= s.Propose &&
		s.Deliver >= s.Decide && s.Reply >= s.Deliver
	return b
}

// Spans reconstructs every request's span from a merged trace. Requests
// are linked to their broadcast slot through the Deliver batches that
// carried them; the slot then links them to the consensus propose/decide
// events, which do not name the request in their bodies.
func Spans(events []obs.Event) []Span {
	type slotTimes struct{ propose, decide, deliver int64 }
	slots := make(map[int64]*slotTimes)
	slotAt := func(slot int64) *slotTimes {
		st := slots[slot]
		if st == nil {
			st = &slotTimes{}
			slots[slot] = st
		}
		return st
	}
	first := func(cur *int64, at int64) {
		if *cur == 0 || at < *cur {
			*cur = at
		}
	}

	spanSlot := make(map[string]int64) // span key -> broadcast slot
	submit := make(map[string]int64)
	reply := make(map[string]int64)

	noteDeliver := func(d broadcast.Deliver, at int64) {
		st := slotAt(int64(d.Slot))
		first(&st.deliver, at)
		for _, b := range d.Msgs {
			if _, ok := spanSlot[b.Key()]; !ok {
				spanSlot[b.Key()] = int64(d.Slot)
			}
		}
	}
	scan := func(m msg.Msg, at int64, received bool) {
		switch b := m.Body.(type) {
		case broadcast.Bcast:
			first2(submit, b.Key(), at)
		case core.TxRequest:
			first2(submit, b.Key(), at)
		case broadcast.Deliver:
			if received {
				noteDeliver(b, at)
			}
		case synod.Propose:
			first(&slotAt(int64(b.Inst)).propose, at)
		case twothird.Propose:
			first(&slotAt(int64(b.Inst)).propose, at)
		case synod.Decide:
			first(&slotAt(int64(b.Inst)).decide, at)
		case twothird.Decide:
			first(&slotAt(int64(b.Inst)).decide, at)
		case core.TxResult:
			first2(reply, core.TxRequest{Client: b.Client, Seq: b.Seq}.Key(), at)
		}
	}
	for _, e := range events {
		if e.M != nil {
			scan(*e.M, e.At, true)
		}
		for _, o := range e.Outs {
			scan(o.M, e.At, false)
		}
	}

	keys := make([]string, 0, len(spanSlot))
	for k := range spanSlot {
		keys = append(keys, k)
	}
	for k := range submit {
		if _, ok := spanSlot[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]Span, 0, len(keys))
	for _, k := range keys {
		s := Span{ID: k, Slot: -1, Submit: submit[k], Reply: reply[k]}
		if slot, ok := spanSlot[k]; ok {
			s.Slot = slot
			if st := slots[slot]; st != nil {
				s.Propose, s.Decide, s.Deliver = st.propose, st.decide, st.deliver
			}
		}
		out = append(out, s)
	}
	return out
}

// RecordSpans observes every complete span's segments into o's latency
// histograms (dist.span.broadcast_ns, …consensus_ns, …apply_ns,
// …total_ns) and returns how many spans were complete — the hook that
// puts per-request breakdowns on a node's metrics endpoint.
func RecordSpans(o *obs.Obs, spans []Span) int {
	complete := 0
	hb := o.Histogram("dist.span.broadcast_ns")
	hc := o.Histogram("dist.span.consensus_ns")
	ha := o.Histogram("dist.span.apply_ns")
	ht := o.Histogram("dist.span.total_ns")
	for _, s := range spans {
		b := s.Breakdown()
		if !b.Complete {
			continue
		}
		complete++
		hb.ObserveDuration(b.Broadcast)
		hc.ObserveDuration(b.Consensus)
		ha.ObserveDuration(b.Apply)
		ht.ObserveDuration(b.Total)
	}
	return complete
}

// SegmentStats summarizes one segment's latencies exactly (the span count
// of a trace window is small, so sorting beats log-bucketing).
type SegmentStats struct {
	Count int   `json:"count"`
	Mean  int64 `json:"mean"`
	P50   int64 `json:"p50"`
	P99   int64 `json:"p99"`
	Max   int64 `json:"max"`
}

// SegmentSummary computes exact per-segment stats over the complete
// spans, keyed broadcast/consensus/apply/total (nanoseconds).
func SegmentSummary(spans []Span) map[string]SegmentStats {
	segs := map[string][]int64{}
	for _, s := range spans {
		b := s.Breakdown()
		if !b.Complete {
			continue
		}
		segs["broadcast"] = append(segs["broadcast"], int64(b.Broadcast))
		segs["consensus"] = append(segs["consensus"], int64(b.Consensus))
		segs["apply"] = append(segs["apply"], int64(b.Apply))
		segs["total"] = append(segs["total"], int64(b.Total))
	}
	out := make(map[string]SegmentStats, len(segs))
	for name, vs := range segs {
		out[name] = summarize(vs)
	}
	return out
}

func summarize(vs []int64) SegmentStats {
	if len(vs) == 0 {
		return SegmentStats{}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	var sum int64
	for _, v := range vs {
		sum += v
	}
	at := func(q float64) int64 {
		i := int(q * float64(len(vs)-1))
		return vs[i]
	}
	return SegmentStats{
		Count: len(vs),
		Mean:  sum / int64(len(vs)),
		P50:   at(0.50),
		P99:   at(0.99),
		Max:   vs[len(vs)-1],
	}
}

func first2(m map[string]int64, k string, at int64) {
	if cur, ok := m[k]; !ok || at < cur {
		m[k] = at
	}
}
