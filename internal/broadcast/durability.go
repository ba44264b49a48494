package broadcast

import (
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

// seqSnapshot is the compacted journal: the delivery frontier, the
// proposal high-water mark, and any decided-but-not-yet-contiguous
// slots (still encoded as consensus values).
type seqSnapshot struct {
	Next     int
	PropSlot int
	Decided  map[int]string
}

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

func (s *seqState) snapshot() []byte {
	snap := seqSnapshot{Next: s.next, PropSlot: s.propSlot, Decided: make(map[int]string)}
	for slot, b := range s.decided {
		snap.Decided[slot] = EncodeBatch(b)
	}
	return store.EncodeRecord(snap)
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
	registerWire()
	s.j = store.NewJournal("seq-"+string(slf), st, 0)
	_, err := s.j.Recover(store.Decoding(func(snap seqSnapshot) error {
		s.next, s.propSlot = snap.Next, snap.PropSlot
		for slot, val := range snap.Decided {
			if err := s.decide(slot, val); err != nil {
				return fmt.Errorf("slot %d: %w", slot, err)
			}
		}
		return nil
	}), func(rec []byte) error {
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
