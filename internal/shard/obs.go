package shard

import "shadowdb/internal/obs"

// Observability for the sharding layer: forward/2PC counters on the
// router, prepare/decision counters on the replicas, and an extractor
// tying 2PC control messages to their transaction span so traces of a
// cross-shard commit read as one story across coordinator and
// participants.

var (
	mRouterForwards  = obs.C("shard.router.forwards")
	mRouterRejects   = obs.C("shard.router.rejects")
	m2PCBegins       = obs.C("shard.2pc.begins")
	m2PCCommits      = obs.C("shard.2pc.commits")
	m2PCAborts       = obs.C("shard.2pc.aborts")
	m2PCRetransmits  = obs.C("shard.2pc.retransmits")
	mShardPrepares   = obs.C("shard.replica.prepares")
	mShard2PCCommits = obs.C("shard.replica.2pc_commits")
	mShard2PCAborts  = obs.C("shard.replica.2pc_aborts")
)

func init() {
	obs.RegisterExtractor(func(hdr string, body any) (obs.Fields, bool) {
		f := obs.NoFields()
		f.Kind = hdr
		switch b := body.(type) {
		case Vote:
			f.Span = b.TxID
		case Ack:
			f.Span = b.TxID
		case RetryBody:
			f.Span = b.TxID
		default:
			return obs.Fields{}, false
		}
		return f, true
	})
}
