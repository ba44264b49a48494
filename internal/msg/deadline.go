package msg

// Deadline extraction. Envelopes carry the deadline of the request a
// send serves (Envelope.Deadline) so transports can refuse expired
// work without decoding bodies, but msg cannot know which body types
// carry deadlines — that knowledge lives in the protocol packages.
// Mirroring the obs extractor pattern, packages whose bodies carry a
// deadline register an extractor from init, before any goroutine runs,
// so DeadlineOf reads the list without a lock; hosts call it when
// stamping an envelope.

var deadlineFns []func(Msg) (int64, bool)

// RegisterDeadline registers a body-deadline extractor: given a
// message, it returns the absolute deadline (nanoseconds, 0 = none)
// and whether it recognized the body type. Protocol packages register
// one per deadline-carrying body, from init; registration order is
// irrelevant because each extractor claims only its own types.
func RegisterDeadline(fn func(Msg) (int64, bool)) {
	deadlineFns = append(deadlineFns, fn)
}

// DeadlineOf extracts the deadline carried by m's body, or 0 when no
// registered extractor recognizes it (no deadline).
func DeadlineOf(m Msg) int64 {
	for _, fn := range deadlineFns {
		if d, ok := fn(m); ok {
			return d
		}
	}
	return 0
}
