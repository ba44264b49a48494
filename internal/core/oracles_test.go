package core

import (
	"errors"
	"fmt"
	"reflect"

	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
)

// Test oracles for the correctness properties of Section III-A:
//
//   - Durability: once a client receives a transaction's answer, the
//     execution of this transaction is permanently reflected in the state
//     of the surviving replicas.
//   - State-agreement: in each configuration, replicas that process
//     transactions start in the same state.
//   - Strict serializability: the committed history is equivalent to the
//     sequential execution of the replica log, and the log respects each
//     client's submission order.

// Validation errors.
var (
	ErrDurability      = errors.New("core: durability violated")
	ErrStateAgreement  = errors.New("core: state agreement violated")
	ErrSerializability = errors.New("core: serializability violated")
	ErrClientOrder     = errors.New("core: client submission order violated")
	ErrIncompleteLog   = errors.New("core: replica journal compacted, cannot replay")
)

// Seen reports whether the executor has executed (and remembered) the
// request key — used by the durability validator.
func (e *Executor) Seen(req TxRequest) bool {
	cs := e.cstates[string(req.Client)]
	return cs != nil && req.Seq <= cs.lastSeq
}

// FullLog returns a PBR replica's whole history from its journal, when
// no snapshot has folded order 1 in yet.
func (r *PBRReplica) FullLog() ([]Repl, error) {
	if r.exec.snapAt != 0 {
		return nil, ErrIncompleteLog
	}
	var log []Repl
	err := r.exec.st.Replay(func(rec []byte) error {
		x, err := msg.DecodeBody[Repl](rec)
		if err != nil {
			return err
		}
		log = append(log, Repl{Order: x.Order, Req: x.Req})
		return nil
	})
	return log, err
}

// CheckDurability verifies every answered request is reflected at every
// surviving replica's executor.
func CheckDurability(answered []TxResult, survivors ...*Executor) error {
	for _, res := range answered {
		req := TxRequest{Client: res.Client, Seq: res.Seq}
		for i, s := range survivors {
			if !s.Seen(req) {
				return fmt.Errorf("%w: %s/%d missing at survivor %d", ErrDurability, res.Client, res.Seq, i)
			}
		}
	}
	return nil
}

// CheckStateAgreement verifies the replicas hold identical databases.
func CheckStateAgreement(dbs ...*sqldb.DB) error {
	for i := 1; i < len(dbs); i++ {
		if !sqldb.Equal(dbs[0], dbs[i]) {
			return fmt.Errorf("%w: replica 0 and %d differ", ErrStateAgreement, i)
		}
	}
	return nil
}

// CheckSerializable replays a PBR replica's committed log on a fresh database
// and verifies (1) the final state matches the replica, (2) each client's
// transactions appear in submission order, and (3) every answered result
// matches the replayed result. setup installs the initial schema and
// population (the state replicas started from).
func CheckSerializable(reg Registry, setup func(*sqldb.DB) error, replica *PBRReplica, answered []TxResult) error {
	log, err := replica.FullLog()
	if err != nil {
		return err
	}
	fresh := sqldb.New(replica.exec.DB.Engine())
	if setup != nil {
		if err := setup(fresh); err != nil {
			return fmt.Errorf("setup replay database: %w", err)
		}
	}
	replay := NewExecutor(fresh, reg)
	lastSeq := make(map[string]int64)
	results := make(map[string]TxResult)
	for i, entry := range log {
		if entry.Order != int64(i+1) {
			return fmt.Errorf("%w: log gap at %d", ErrSerializability, i)
		}
		cli := string(entry.Req.Client)
		if entry.Req.Seq <= lastSeq[cli] {
			return fmt.Errorf("%w: client %s seq %d after %d", ErrClientOrder, cli, entry.Req.Seq, lastSeq[cli])
		}
		lastSeq[cli] = entry.Req.Seq
		res, err := replay.Apply(entry.Order, entry.Req)
		if err != nil {
			return fmt.Errorf("replay order %d: %w", entry.Order, err)
		}
		results[entry.Req.Key()] = res
	}
	if !sqldb.Equal(fresh, replica.exec.DB) {
		return fmt.Errorf("%w: replayed state differs from replica state", ErrSerializability)
	}
	for _, res := range answered {
		key := TxRequest{Client: res.Client, Seq: res.Seq}.Key()
		want, ok := results[key]
		if !ok {
			return fmt.Errorf("%w: answered %s not in log", ErrDurability, key)
		}
		if res.Aborted != want.Aborted || res.Err != want.Err || !reflect.DeepEqual(res.Rows, want.Rows) {
			return fmt.Errorf("%w: result of %s differs from replay", ErrSerializability, key)
		}
	}
	return nil
}
