package core

import (
	"shadowdb/internal/flow"
	"shadowdb/internal/msg"
)

// FlowClass is the shed classifier for the ordered payloads this
// package owns (see flow.Classifier): client transactions are
// ClassWrite; lease renewals, membership commands, and recovery
// markers are ClassControl — a saturated sequencer must keep ordering
// the control plane or overload turns into unavailability. Reads never
// appear here: lease and follower reads are served locally at replicas
// and bypass the order entirely, which is how they end up "shed last"
// — they are never queued at all.
func FlowClass(payload []byte) flow.Class {
	switch msg.PayloadTag(payload) {
	case leaseTag, memberTag:
		return flow.ClassControl
	}
	return flow.ClassWrite
}

func init() {
	// Envelope deadline stamping for direct transaction sends (the PBR
	// client path, which does not wrap requests in a Bcast).
	msg.RegisterDeadline(func(m msg.Msg) (int64, bool) {
		if r, ok := m.Body.(TxRequest); ok {
			return r.Deadline, true
		}
		return 0, false
	})
}
