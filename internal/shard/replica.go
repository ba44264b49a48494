package shard

import (
	"errors"
	"fmt"

	"shadowdb/internal/core"
	"shadowdb/internal/msg"
)

// Ledger is what a shard replica adds to a core.SMRReplica: the
// participant side of 2PC, as the replica's extension (core.SMRExtension)
// — two ordered events and the state they keep. The slot loop, the
// journal, recovery, catch-up and state transfer are the SMR replica's.
//
//   - A delivered Prepare is voted on deterministically: YES iff every
//     Reserve amount fits in Available minus what earlier YES votes
//     already hold. A YES vote records the hold in the ledger, NOT in
//     the database — prepared-but-undecided state is never visible to
//     reads, which is half of the cross-shard atomicity invariant.
//   - A delivered Decision releases the hold and, on commit, applies the
//     sub-transaction's procedure. Only then does the database change.
//   - Duplicates are idempotent from the prepared/decided tables: a
//     re-delivered Prepare re-sends the recorded vote, a re-delivered
//     Decision re-sends the ack. The coordinator leans on this — its
//     retransmissions use fresh broadcast sequence numbers (a reused one
//     could be swallowed by the sequencer's dedup with nothing
//     re-delivered), so the same record may legitimately be ordered
//     twice.
//
// Because both record kinds arrive through the shard's total order,
// every replica of the shard processes them in the same order and the
// vote/apply outcomes agree replica-to-replica without coordination.
// The ledger rides the replica's snapshots and state transfers, so a
// replica restarted between a prepare and its decision still holds the
// reservation it voted for.
type Ledger struct {
	slf   msg.Loc
	shard int
	app   App
	exec  *core.Executor
	// prepared records delivered prepares awaiting their decision and the
	// vote each produced (for idempotent re-votes); the YES votes among
	// them are the reservations the ledger holds (HeldOn).
	prepared map[string]pendingPrep
	// decided records processed decisions for idempotent re-acks. It is
	// never pruned: the coordinator's "done" is deliberately not
	// broadcast (it would double every 2PC's ordered traffic), and one
	// small struct per distributed transaction is an acceptable ledger
	// for this system's scale.
	decided map[string]Decision
}

// pendingPrep is a delivered prepare and the vote it produced.
type pendingPrep struct {
	P  Prepare
	OK bool
}

// NewLedger returns the empty ledger of a replica of shard shardIdx, to
// be passed as core.SMRConfig.Ext.
func NewLedger(shardIdx int, app App) *Ledger {
	return &Ledger{shard: shardIdx, app: app, prepared: make(map[string]pendingPrep), decided: make(map[string]Decision)}
}

// Bind implements core.SMRExtension: the ledger's two ordered events.
func (l *Ledger) Bind(self msg.Loc, exec *core.Executor) map[byte]core.OrderedHandler {
	l.slf, l.exec = self, exec
	return map[byte]core.OrderedHandler{prepareTag: l.onPrepare, decisionTag: l.onDecision}
}

// Snapshot implements core.SMRExtension: the ledger as the records that
// built it, in TxID order — each pending Prepare followed by its vote,
// then each processed Decision.
func (l *Ledger) Snapshot() []byte {
	b, err := msg.Append(nil, func(w *msg.Writer) {
		for _, id := range msg.SortedKeys(l.prepared) {
			w.Body(l.prepared[id].P)
			w.Bool(l.prepared[id].OK)
		}
		for _, id := range msg.SortedKeys(l.decided) {
			w.Body(l.decided[id])
		}
	})
	if err != nil {
		// Only Prepares that decoded from the order are held, and the
		// codec writes whatever it decodes.
		panic(fmt.Sprintf("shard: ledger snapshot: %v", err))
	}
	return b
}

var errLedgerRecord = errors.New("shard: a ledger snapshot holds a body other than a Prepare or a Decision")

// Restore implements core.SMRExtension.
func (l *Ledger) Restore(b []byte) error {
	prepared, decided := make(map[string]pendingPrep), make(map[string]Decision)
	err := msg.Read(b, func(r *msg.Reader) {
		for r.More() {
			switch v := r.Body().(type) {
			case Prepare:
				prepared[v.TxID] = pendingPrep{P: v, OK: r.Bool()}
			case Decision:
				decided[v.TxID] = v
			default:
				r.Fail(errLedgerRecord)
			}
		}
	})
	if err != nil {
		return err
	}
	l.prepared, l.decided = prepared, decided
	return nil
}

// OpenPrepares counts prepares still awaiting a decision — zero after a
// drain means no transaction is half-way through 2PC on this shard.
func (l *Ledger) OpenPrepares() int { return len(l.prepared) }

// HeldOn reports how much of key the YES votes still awaiting their
// decisions hold.
func (l *Ledger) HeldOn(key string) int64 {
	var n int64
	for _, pd := range l.prepared {
		if pd.OK {
			n += pd.P.Sub.Reserve[key]
		}
	}
	return n
}

// onPrepare votes on a delivered prepare. The vote is a deterministic
// function of the delivered order, so all replicas of the shard agree.
func (l *Ledger) onPrepare(payload []byte, _ int) []msg.Directive {
	p, err := msg.DecodeBody[Prepare](payload)
	if err != nil {
		return nil
	}
	if pd, seen := l.prepared[p.TxID]; seen {
		// Retransmitted prepare (our vote was lost): re-send the recorded
		// vote without re-reserving.
		return l.vote(pd.P, pd.OK)
	}
	if _, done := l.decided[p.TxID]; done {
		// The decision already arrived and was processed; the coordinator
		// has what it needs (or will re-send the decision itself).
		return nil
	}
	_, ok := l.exec.Reg[p.Sub.Apply]
	for _, key := range msg.SortedKeys(p.Sub.Reserve) {
		avail, err := l.app.Available(l.exec.DB, key)
		if err != nil || avail-l.HeldOn(key) < p.Sub.Reserve[key] {
			ok = false
			break
		}
	}
	l.prepared[p.TxID] = pendingPrep{P: p, OK: ok}
	mShardPrepares.Inc()
	return l.vote(p, ok)
}

func (l *Ledger) vote(p Prepare, ok bool) []msg.Directive {
	return []msg.Directive{msg.Send(p.Coord, msg.M(HdrVote, Vote{
		TxID: p.TxID, Shard: l.shard, From: l.slf, OK: ok,
	}))}
}

// onDecision releases the prepare's holds (retiring the prepare) and
// applies the slice on commit. Both paths ack to the coordinator.
func (l *Ledger) onDecision(payload []byte, _ int) []msg.Directive {
	d, err := msg.DecodeBody[Decision](payload)
	if err != nil {
		return nil
	}
	if _, done := l.decided[d.TxID]; done {
		// Retransmitted decision (our ack was lost): re-ack.
		return l.ack(d)
	}
	if pd, ok := l.prepared[d.TxID]; ok {
		delete(l.prepared, d.TxID)
		if d.Commit && pd.OK {
			// The reservation made the apply infallible; the coordinator —
			// not this replica — answers the client, so the result is only
			// recorded locally (duplicates of the original request would be
			// cross-shard again and never reach this executor directly).
			core.RunProc(l.exec.DB, l.exec.Reg, core.TxRequest{
				Client: pd.P.Req.Client, Seq: pd.P.Req.Seq,
				Type: pd.P.Sub.Apply, Args: pd.P.Sub.ApplyArgs,
			})
			mShard2PCCommits.Inc()
		} else {
			mShard2PCAborts.Inc()
		}
	}
	// A decision without a local prepare is legitimate only for aborts
	// (the coordinator timed out before our shard ever saw the prepare);
	// a commit without a prepare is the atomicity violation the checker
	// flags — the replica conservatively does not apply.
	l.decided[d.TxID] = d
	return l.ack(d)
}

func (l *Ledger) ack(d Decision) []msg.Directive {
	return []msg.Directive{msg.Send(d.Coord, msg.M(HdrAck, Ack{
		TxID: d.TxID, Shard: l.shard, From: l.slf,
	}))}
}
