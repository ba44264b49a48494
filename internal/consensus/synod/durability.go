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
// acceptor is a client of store.Journal: it journals a record per
// adopted ballot / accepted pvalue ahead of replying, and is rebuilt
// from snapshot + tail when its class is instantiated again — which is
// what both a real process restart and a simulated crash-restart
// (verify's Restarts budget, the DES rebuild path) do.

// accRecord is one journaled acceptor mutation: the ballot adopted by
// the promise, plus the accepted pvalue when the mutation was phase 2.
type accRecord struct {
	B  Ballot
	PV *PValue
}

// accSnapshot is the full acceptor state.
type accSnapshot struct {
	B    Ballot
	HasB bool
	PVs  []PValue
}

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
	_, err := s.j.Recover(store.Decoding(func(sn accSnapshot) error {
		s.ballot, s.hasB = sn.B, sn.HasB
		for _, pv := range sn.PVs {
			s.accepted[pv.Inst] = pv
		}
		return nil
	}), store.Decoding(func(r accRecord) error { s.apply(r); return nil }))
	return s, err
}

// apply folds one mutation into the state: the ballot never regresses
// and a slot keeps its highest-ballot pvalue.
func (s *acceptorState) apply(r accRecord) {
	if !s.hasB || s.ballot.Less(r.B) {
		s.ballot, s.hasB = r.B, true
	}
	if r.PV != nil {
		if prev, ok := s.accepted[r.PV.Inst]; !ok || prev.B.Less(r.PV.B) {
			s.accepted[r.PV.Inst] = *r.PV
		}
	}
}

// record applies a mutation and journals it write-ahead of the reply
// that reveals it, synced: the reply is a durable promise (free under
// SyncAlways, where Append already synced; under SyncBatch this is the
// covering fsync that makes batching sound for acceptors). A storage
// failure panics: an acceptor that cannot persist must not reply.
func (s *acceptorState) record(r accRecord) {
	s.apply(r)
	if s.j == nil {
		return
	}
	err := s.j.Append(store.EncodeRecord(r))
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

func (s *acceptorState) snapshot() []byte {
	return store.EncodeRecord(accSnapshot{B: s.ballot, HasB: s.hasB, PVs: s.pvalues()})
}
