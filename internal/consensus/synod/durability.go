package synod

import (
	"fmt"

	"shadowdb/internal/msg"
	"shadowdb/internal/store"
)

// Acceptor durability. The paper's safety argument rests on "an
// acceptor never forgets a promise": every P1b/P2b reply is a durable
// commitment, so the mutation behind it must reach stable storage
// before the reply leaves the process. With Config.Stable set, each
// acceptor is a client of store.Journal: it journals the P1a it adopts
// and the P2a it accepts, as wire bodies, ahead of replying, compacts
// them into a snapshot of the same bodies, and is rebuilt from snapshot
// + tail when its class is instantiated again —
// what both a real process restart and a simulated crash-restart
// (verify's Restarts budget, the DES rebuild path) do.

// openAcceptor builds the acceptor at slf, recovered from its stable
// store when durability is configured.
func openAcceptor(cfg Config, slf msg.Loc) (*acceptorState, error) {
	s := &acceptorState{accepted: make(map[int]PValue)}
	if cfg.Stable == nil {
		return s, nil
	}
	st := cfg.Stable(slf)
	if st == nil {
		return s, nil
	}
	s.j = store.NewJournal("acc-"+string(slf), st, 0)
	_, err := s.j.Recover(func(snap []byte) error {
		return msg.Read(snap, func(r *msg.Reader) {
			for r.More() {
				if err := s.apply(r.Body()); err != nil {
					r.Fail(err)
				}
			}
		})
	}, func(rec []byte) error {
		body, err := msg.DecodeBody[any](rec)
		if err == nil {
			err = s.apply(body)
		}
		return err
	})
	return s, err
}

// apply folds one mutation, a P1a or a P2a, into the state: the ballot
// never regresses and a slot keeps its highest-ballot pvalue.
func (s *acceptorState) apply(body any) error {
	var b Ballot
	switch m := body.(type) {
	case P1a:
		b = m.B
	case P2a:
		b = m.B
		if prev, ok := s.accepted[m.Inst]; !ok || prev.B.Less(b) {
			s.accepted[m.Inst] = PValue{B: b, Inst: m.Inst, Val: m.Val}
		}
	default:
		return fmt.Errorf("synod: %T is not an acceptor record", body)
	}
	if !s.hasB || s.ballot.Less(b) {
		s.ballot, s.hasB = b, true
	}
	return nil
}

// record applies a mutation and journals it write-ahead of the reply
// that reveals it, synced: the reply is a durable promise (free under
// SyncAlways, where Append already synced; under SyncBatch this is the
// covering fsync that makes batching sound for acceptors). A storage
// failure panics: an acceptor that cannot persist must not reply.
func (s *acceptorState) record(body any) {
	_ = s.apply(body) // the step records only a P1a or a P2a
	if s.j == nil {
		return
	}
	rec, _ := msg.AppendBody(nil, body) // their codecs refuse no value
	err := s.j.Append(rec)
	if err == nil {
		err = s.j.Sync()
	}
	if err == nil {
		_, err = s.j.CompactIfDue(s.snapshot)
	}
	if err != nil {
		panic(fmt.Sprintf("synod: acceptor journal: %v", err))
	}
}

// snapshot writes the acceptor's state as the records that rebuild it:
// the P1a of its ballot, then the P2a of each accepted pvalue in slot
// order.
func (s *acceptorState) snapshot() []byte {
	b, _ := msg.Append(nil, func(w *msg.Writer) { // their codecs refuse no value
		if s.hasB {
			w.Body(P1a{B: s.ballot})
		}
		for _, pv := range s.pvalues() {
			w.Body(P2a{B: pv.B, Inst: pv.Inst, Val: pv.Val})
		}
	})
	return b
}
