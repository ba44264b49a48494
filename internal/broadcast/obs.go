package broadcast

import (
	"fmt"

	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
)

// Observability for the broadcast service. The sequencer path updates
// process-wide counters (one atomic add each) and, when tracing is on,
// emits broadcast-layer events so a message can be followed from bcast
// through propose to deliver. Handles are cached here at package init.

var (
	mBcasts    = obs.C("broadcast.bcasts")
	mForwards  = obs.C("broadcast.forwards")
	mProposals = obs.C("broadcast.proposals")
	mDecides   = obs.C("broadcast.decides")
	mDelivers  = obs.C("broadcast.delivers")
	mRejects   = obs.C("broadcast.rejects")
	mBatchSize = obs.H("broadcast.batch_size")
	mP2DNS     = obs.H("broadcast.propose_to_deliver_ns")

	lg = obs.L("broadcast")
)

// The extractor publishes the service's message coordinates to obs
// without obs importing this package.
func init() {
	obs.RegisterExtractor(func(hdr string, body any) (obs.Fields, bool) {
		switch b := body.(type) {
		case Bcast:
			return obs.Fields{Slot: obs.NoField, Ballot: obs.NoField, Span: b.Key(), Kind: HdrBcast}, true
		case Deliver:
			return obs.Fields{Slot: int64(b.Slot), Ballot: obs.NoField, Kind: HdrDeliver}, true
		}
		return obs.Fields{}, false
	})
}

// markBcast records a fresh (non-duplicate) client message, forwarded or
// accepted into the local pending batch.
func markBcast(forwarded bool) {
	mBcasts.Inc()
	if forwarded {
		mForwards.Inc()
	}
}

// markProposed records a proposal of batchLen messages for slot and
// stamps the slot so markDelivered can observe the propose-to-deliver
// latency. The stamp lives in sequencer state but never influences
// outputs, so model-checked replays stay deterministic.
func (s *seqState) markProposed(slf msg.Loc, slot, batchLen int) {
	mProposals.Inc()
	mBatchSize.Observe(int64(batchLen))
	if s.propAt == nil {
		s.propAt = make(map[int]int64)
	}
	s.propAt[slot] = obs.Default.Now()
	if lg.Enabled(obs.LevelDebug) {
		lg.WithNode(slf).Debugf("proposed slot %d (batch=%d)", slot, batchLen)
	}
	if obs.Default.Tracing() {
		e := obs.Ev(slf, obs.LayerBroadcast, "bc.propose")
		e.Slot = int64(slot)
		e.Note = fmt.Sprintf("batch=%d", batchLen)
		obs.Default.Record(e)
	}
}

// markDelivered records the in-order delivery of a slot.
func (s *seqState) markDelivered(slf msg.Loc, slot, batchLen int) {
	mDelivers.Inc()
	if at, ok := s.propAt[slot]; ok {
		delete(s.propAt, slot)
		mP2DNS.Observe(obs.Default.Now() - at)
	}
	if lg.Enabled(obs.LevelDebug) {
		lg.WithNode(slf).Debugf("delivered slot %d (batch=%d)", slot, batchLen)
	}
	if obs.Default.Tracing() {
		e := obs.Ev(slf, obs.LayerBroadcast, "bc.deliver")
		e.Slot = int64(slot)
		e.Note = fmt.Sprintf("batch=%d", batchLen)
		obs.Default.Record(e)
	}
}
