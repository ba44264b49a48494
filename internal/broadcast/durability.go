package broadcast

import (
	"errors"
	"fmt"

	"shadowdb/internal/consensus/synod"
	"shadowdb/internal/msg"
	"shadowdb/internal/store"
)

// Sequencer durability. With Config.Stable set, each service node is a
// client of store.Journal: it journals every decided slot (as its
// synod.Decide body) before fanning out its Deliver notifications, and
// compacts the journal into a snapshot of its delivery frontier. A
// re-instantiated node — a real process restart reopening its data
// directory, or a DES/verify rebuild over a store.Mem — recovers the
// journal and resumes contiguously: journaled slots are neither
// re-decided nor re-proposed, and delivery continues at the first slot
// after the journaled prefix. Subscribers that missed Deliver fan-out
// during the downtime recover through their own catch-up protocol (the
// SMR replica's WAL + delta fetch), not by sequencer redelivery.

var errNotDecide = errors.New("broadcast: a sequencer snapshot holds a body other than a decision")

// journal appends one decision write-ahead of its delivery. A storage
// failure panics: a sequencer that cannot journal must not deliver.
func (s *seqState) journal(inst int, val string) {
	if s.j == nil {
		return
	}
	rec, _ := msg.AppendBody(make([]byte, 0, len(val)+16), synod.Decide{Inst: inst, Val: val}) // its codec refuses no value
	err := s.j.Append(rec)
	if err == nil {
		_, err = s.j.CompactIfDue(s.snapshot)
	}
	if err != nil {
		panic(fmt.Sprintf("broadcast: sequencer journal: %v", err))
	}
}

// snapshot is the compacted journal: the delivery frontier and the
// proposal high-water mark, then each decided-but-not-yet-contiguous
// slot as the synod.Decide its record holds, in slot order.
func (s *seqState) snapshot() []byte {
	b, _ := msg.Append(nil, func(w *msg.Writer) { // its codec refuses no value
		w.Int(s.next)
		w.Int(s.propSlot)
		for _, slot := range msg.SortedKeys(s.decided) {
			w.Body(synod.Decide{Inst: slot, Val: EncodeBatch(s.decided[slot])})
		}
	})
	return b
}

// decide parks a decision's batch until the delivery frontier reaches
// its slot, unless the frontier has passed it already. A value that does
// not decode parks the empty batch, which keeps the slots contiguous,
// and the error is returned for the caller to judge: a live decision
// cannot carry one from honest proposers, so onDecide delivers the empty
// batch, while recovery refuses the journal.
func (s *seqState) decide(inst int, val string) error {
	if inst < s.next {
		return nil
	}
	batch, err := DecodeBatch(val)
	s.decided[inst] = batch
	return err
}

// recover rebuilds the sequencer's decided log from st — snapshot, then
// the journal tail — and advances the delivery frontier past the
// contiguous prefix without re-delivering it: that prefix was delivered,
// or is recoverable by the subscribers.
func (s *seqState) recover(slf msg.Loc, st store.Stable) error {
	s.j = store.NewJournal("seq-"+string(slf), st, 0)
	_, err := s.j.Recover(func(snap []byte) error {
		return msg.Read(snap, func(r *msg.Reader) {
			s.next, s.propSlot = r.Int(), r.Int()
			for r.More() {
				d, ok := r.Body().(synod.Decide)
				if !ok {
					r.Fail(errNotDecide)
				} else if err := s.decide(d.Inst, d.Val); err != nil {
					r.Fail(fmt.Errorf("slot %d: %w", d.Inst, err))
				}
			}
		})
	}, func(rec []byte) error {
		d, err := msg.DecodeBody[synod.Decide](rec)
		if err == nil {
			s.propSlot = max(s.propSlot, d.Inst) // never re-propose a journaled slot
			if err = s.decide(d.Inst, d.Val); err != nil {
				err = fmt.Errorf("slot %d: %w", d.Inst, err)
			}
		}
		return err
	})
	for {
		if _, ok := s.decided[s.next]; !ok {
			break
		}
		delete(s.decided, s.next)
		s.next++
	}
	s.propSlot = max(s.propSlot, s.next-1)
	return err
}
