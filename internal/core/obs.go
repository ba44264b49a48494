package core

import (
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
)

// Observability for ShadowDB: commit latency and executed-seqno progress
// on the normal case, counters and trace events on every recovery phase
// (suspicion, reconfiguration, election, catch-up, resume), and an
// extractor tying each message to its transaction span and configuration
// coordinates. Timestamps ride in replica state but never influence
// outputs, so model-checked replays stay deterministic.

var (
	mSMRCommits = obs.C("core.smr.commits")
	mSMRApplyNS = obs.H("core.smr.apply_ns")
	mPBRTxs     = obs.C("core.pbr.txs")
	mPBRCommits = obs.C("core.pbr.commits")
	mPBRNS      = obs.H("core.pbr.commit_ns")
	mSuspects   = obs.C("core.pbr.suspects")
	mReconfigs  = obs.C("core.pbr.reconfigs")
	mElections  = obs.C("core.pbr.elections")
	mRecoverNS  = obs.H("core.pbr.recovery_ns")
	gExecuted   = obs.G("core.executed")
	mCliRetries = obs.C("core.client.retries")
	mCliBackoff = obs.C("core.client.backoff_ns")
	mRefused    = obs.C("core.exec.refused")

	// Dynamic membership: bootstrap snapshots pushed to joiners.
	mSMRSnapshotsSent = obs.C("core.smr.member_snapshots")

	// Lease-based local reads (lease.go).
	mLeaseRenewals    = obs.C("core.lease.renewals")
	mLeaseGrants      = obs.C("core.lease.grants")
	mLeaseRefused     = obs.C("core.lease.refused")
	mLeaseReacks      = obs.C("core.lease.reacks")
	mSMRReads         = obs.C("core.smr.reads")
	mSMRReadsRejected = obs.C("core.smr.reads_rejected")
	mAcksSuppressed   = obs.C("core.smr.acks_suppressed")
	mGroupSyncs       = obs.C("core.smr.group_syncs")
	mSMRAppends       = obs.C("core.smr.journal_appends")

	lg = obs.L("core")
)

func init() {
	obs.RegisterExtractor(func(hdr string, body any) (obs.Fields, bool) {
		f := obs.NoFields()
		f.Kind = hdr
		switch b := body.(type) {
		case TxRequest:
			f.Span = b.Key()
		case TxResult:
			f.Span = TxRequest{Client: b.Client, Seq: b.Seq}.Key()
		case ReadRequest:
			f.Span = TxRequest{Client: b.Client, Seq: b.Seq}.Key()
		case *ReadResult:
			f.Slot = int64(b.Slot)
			f.Span = TxRequest{Client: b.Client, Seq: b.Seq}.Key()
		case Repl:
			f.Slot, f.Ballot, f.Span = b.Order, int64(b.CfgSeq), b.Req.Key()
		case ReplAck:
			f.Slot, f.Ballot = b.Order, int64(b.CfgSeq)
		case Heartbeat:
			f.Ballot = int64(b.CfgSeq)
		case Elect:
			f.Slot, f.Ballot = b.Executed, int64(b.CfgSeq)
		case Catchup:
			f.Ballot = int64(b.CfgSeq)
		case CatchupReq:
			f.Slot, f.Ballot = b.After, int64(b.CfgSeq)
		case Recovered:
			f.Ballot = int64(b.CfgSeq)
		case Redirect:
			f.Ballot = int64(b.CfgSeq)
		case SnapPart:
			f.Ballot = int64(b.CfgSeq)
		default:
			return obs.Fields{}, false
		}
		return f, true
	})
}

// traceRecovery emits a core-layer recovery-phase event (pbr.suspect,
// pbr.newconfig, pbr.elected, pbr.recovered, pbr.resume). Recovery
// phases are rare and diagnosis-critical, so they also log at info.
func traceRecovery(slf msg.Loc, kind string, cfgSeq int, note string) {
	lg.WithNode(slf).Infof("%s cfg=%d %s", kind, cfgSeq, note)
	if obs.Default.Tracing() {
		e := obs.Ev(slf, obs.LayerCore, kind)
		e.Ballot = int64(cfgSeq)
		e.Note = note
		obs.Default.Record(e)
	}
}
