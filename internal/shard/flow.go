package shard

import (
	"shadowdb/internal/core"
	"shadowdb/internal/flow"
	"shadowdb/internal/msg"
)

// FlowClass extends core.FlowClass with the 2PC records this
// package submits into shard orders: decisions are ClassControl — a
// shed decision strands prepared participants holding reservations, so
// a saturated sequencer must order them last of all — while prepares
// are ClassWrite, since refusing a prepare before any participant
// prepared degrades into a clean client-visible retry. Everything else
// defers to the core classifier.
func FlowClass(payload []byte) flow.Class {
	switch msg.PayloadTag(payload) {
	case decisionTag:
		return flow.ClassControl
	case prepareTag:
		return flow.ClassWrite
	}
	return core.FlowClass(payload)
}
