package flow

import "shadowdb/internal/obs"

// Metrics. Counters are process-global (one node per process live; the
// simulator aggregates a cluster into one registry, which the bench
// diffs per phase). The depth gauge reflects the most recently updated
// queue; the peak gauge is a monotone max across all queues in the
// registry, which is exactly the "did any queue ever exceed its bound"
// question the certification gate asks.
var (
	mAdmitted        = obs.C("flow.admitted")
	mShed            = obs.C("flow.shed")
	mShedRead        = obs.C("flow.shed.read")
	mShedWrite       = obs.C("flow.shed.write")
	mShedControl     = obs.C("flow.shed.control")
	mDeadlineDropped = obs.C("flow.deadline.dropped")
	mRejectsSent     = obs.C("flow.rejects.sent")
	mBudgetSpent     = obs.C("flow.budget.spent")
	mBudgetDenied    = obs.C("flow.budget.denied")
	mWatchdogFired   = obs.C("flow.watchdog.fired")

	gDepth = obs.G("flow.queue.depth")
	gPeak  = obs.G("flow.queue.peak")
)

func shedByClass(c Class) *obs.Counter {
	switch c {
	case ClassRead:
		return mShedRead
	case ClassWrite:
		return mShedWrite
	}
	return mShedControl
}

// MarkExpired counts one request dropped at a hop because its deadline
// had already passed ("flow.deadline.dropped"). Layers call it at each
// enforcement point so the bench reads one cross-layer counter.
func MarkExpired() { mDeadlineDropped.Inc() }

// MarkReject counts one Reject sent to a client ("flow.rejects.sent").
func MarkReject() { mRejectsSent.Inc() }
